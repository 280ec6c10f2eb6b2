"""Exception taxonomy shared across the package, and the config readers.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical divergence or a solver that never reaches its target exits 3,
failed experiment assertions exit 1.  ``check_step_budget`` is the one
rule that refuses a run too long to finish, before its first step.

The JSON readers hold one rule each, for every config block the CLI and
the catalog read: ``field`` looks a key up, ``number``, ``integer`` and
``flag`` check a value, and ``mapping`` checks a block and its keys.  Each
refusal is a ConfigError that names the field or the block.
"""
from __future__ import annotations

import math

import numpy as np


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


_MISSING = object()


def mapping(block, name: str, accepted=None) -> dict:
    """``block``, once it is a mapping whose keys are all in ``accepted``
    (any keys when None)."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a mapping, got {block!r}")
    for key in block:
        if accepted is not None and key not in accepted:
            raise ConfigError(f"{name} has no key {key!r}; accepted: {', '.join(accepted)}")
    return block


def field(block, key: str, default=_MISSING, where: str = "", read=None, **kw):
    """``block[key]``, or ``default`` when the key is absent, checked by
    ``read(value, name, **kw)`` when given; ``name`` is the dotted path
    ``where.key``, which a missing required field's error names.  A None
    default lets the field be null."""
    name = f"{where}.{key}" if where else key
    value = mapping(block, where or "config").get(key, default)
    if value is _MISSING:
        raise ConfigError(f"config is missing required field {name!r}")
    if read is None or value is None and default is None:
        return value
    return read(value, name, **kw)


def number(value, name: str, many: bool = False):
    """A finite JSON number as a float, or with ``many`` a number or nested
    lists of them as an array; a boolean or a string is not a number."""

    def finite(v) -> bool:
        if many and isinstance(v, (list, tuple)):
            return all(finite(e) for e in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    if not finite(value):
        kind = "a finite number or a list of them" if many else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return np.asarray(value, dtype=float) if many else float(value)


def integer(value, name: str, least: int | None = None) -> int:
    """An int or an integral float, never a boolean, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def flag(value, name: str) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value
