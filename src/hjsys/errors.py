"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical divergence or a solver that never reaches its target exits 3,
failed experiment assertions exit 1.  ``check_step_budget`` is the one
rule that refuses a run too long to finish, before its first step.
"""
from __future__ import annotations


class HJSysError(Exception):
    """Base class for all package-specific errors."""


class StructureError(HJSysError):
    """A matrix, system, or grid object violates a structural precondition."""


class ConfigError(HJSysError):
    """A configuration document or CLI invocation is invalid."""


class DivergenceError(HJSysError):
    """A time march produced non-finite values or broke its CFL contract."""


class ConvergenceError(HJSysError):
    """An iterative solve exhausted its budget before reaching tolerance."""


# the most time steps one evolve march or one Monte Carlo path may take; the
# largest default suite takes 112,640
STEP_BUDGET = 10**8


def check_step_budget(steps: float, what: str) -> None:
    """Raise ConfigError, naming ``what``, unless ``steps`` (inf and nan
    fail) is at most STEP_BUDGET."""
    if not steps <= STEP_BUDGET:
        raise ConfigError(f"{what}: {steps:,.0f} steps exceed the budget of {STEP_BUDGET:,}")
