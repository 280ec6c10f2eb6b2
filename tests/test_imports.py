"""Package hygiene: no module imports a private name from another module,
every name the benchmark tracer wraps still exists, the solvers run
without scipy, the PDE path draws no random numbers, and each module stays
inside its parser-token block."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import tokenize

import hjsys

SRC = pathlib.Path(hjsys.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "hjsys"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} {node.module or '.'}.{alias.name}")
    return found


def test_no_cross_module_private_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .evolution import HJSystem, _hidden\nfrom os import _exit\n")
    assert _private_imports(path) == ["mod.py:1 evolution._hidden"]


def _tracer_targets() -> list:
    """The TARGETS list of perfbench/tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def _unresolved(targets) -> list[str]:
    """Targets whose function is missing; a "Cls.meth" method must be
    defined on the class itself, where the tracer wraps it."""
    missing = []
    for _, module, attr, _ in targets:
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name, None)
            found = owner is not None and name in vars(owner)
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{module}.{attr}")
    return missing


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert len(targets) > 50
    assert _unresolved(targets) == []


def test_the_check_sees_a_missing_traced_name():
    # __init_subclass__ is inherited from object, so it is not on the class
    targets = [
        ("hamiltonians", "hjsys.hamiltonians", "Hamiltonian.__call__", True),
        ("hamiltonians", "hjsys.hamiltonians", "Hamiltonian.__init_subclass__", True),
        ("evolution", "hjsys.evolution", "no_such_function", False),
    ]
    assert _unresolved(targets) == [
        "hjsys.hamiltonians.Hamiltonian.__init_subclass__",
        "hjsys.evolution.no_such_function",
    ]


_SOLVER_PATH = """
import sys
from hjsys.catalog import quadratic_eikonal_pair
from hjsys.ergodic import estimate_ergodic_constant
from hjsys.evolution import EvolutionConfig, solve_batch
from hjsys.grid import GridFunction
import numpy as np

system, _ = quadratic_eikonal_pair(32)
estimate_ergodic_constant(system)
zeros = [GridFunction(system.grid, np.zeros(system.grid.shape))] * system.m
solve_batch(system, [zeros, zeros], EvolutionConfig(t_final=0.1))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solvers_do_not_import_scipy():
    # scipy is a test dependency only; importing scipy.sparse alone costs
    # about 22 MB of resident memory and a quarter of a second
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _SOLVER_PATH], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_PDE_PATH = """
import json, os, sys
import numpy as np
from hjsys import catalog, cli
from hjsys.coupling import CouplingMatrix
from hjsys.ergodic import DiscountSchedule, estimate_ergodic_constant, solve_discounted
from hjsys.evolution import EvolutionConfig, HJSystem, solve_batch
from hjsys.grid import Grid, GridFunction
from hjsys.switching import hamiltonian_from_spec

D = CouplingMatrix.constant(catalog.builtin_coupling("symmetric_pair"))
pairs = {}
for dim in (1, 2):
    for ham_id in catalog.BUILTIN_HAMILTONIAN_IDS:
        pairs[ham_id, dim] = (catalog.build_hamiltonian(ham_id, None, dim),) * 2
spec = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], [[-1.0, 1.0], [1.0, -1.0]])
pairs["switching", 1] = tuple(hamiltonian_from_spec(spec, i) for i in range(2))
for (_, dim), hams in pairs.items():
    system = HJSystem(hams=hams, coupling=D, grid=Grid(dim, 8))
    if dim == 1:
        estimate_ergodic_constant(system, DiscountSchedule(lambdas=(0.1, 0.05)))
    else:  # the march
        solve_discounted(system, 0.1)
    zeros = [GridFunction(system.grid, np.zeros(system.grid.shape))] * 2
    solve_batch(system, [zeros, zeros], EvolutionConfig(t_final=0.1))

out = sys.argv[1]
system = {"grid": {"dim": 1, "n": 16}, "coupling": {"name": "symmetric_pair"},
          "hamiltonians": [{"id": "nonconvex_bs00"}, {"id": "nonconvex_bs00"}]}
configs = {
    "evolve": {"system": system, "solver": {"t_final": 20.0, "snapshot_every": 1.0},
               "u0": {"kind": "zeros"}},
    "diagnose": {"trajectory_dir": os.path.join(out, "evolve", "trajectory"), "c": "measured"},
}
for kind, cfg in configs.items():
    path = os.path.join(out, kind + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main([kind, "--config", path, "--out", os.path.join(out, kind)]) == 0
print("numpy.random" in sys.modules)
"""


def test_pde_path_does_not_import_numpy_random(tmp_path):
    # random numbers belong to the Monte Carlo and the counterexample
    # samplers; importing numpy.random pulls in secrets and hashlib, about
    # 6 MB of resident memory
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _PDE_PATH, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "False"


# CPython's parser allocates its token structs in doubling blocks, so a
# module that crosses a power of two raises the peak RSS of every import by
# 0.2-0.6 MB; evolution.py is the one module past 4,096
_TOKEN_BLOCKS = {"evolution.py": 8192}


def _tokens(path: pathlib.Path) -> int:
    """Tokens the parser sees: ``tokenize`` without COMMENT and NL."""
    with open(path, "rb") as fh:
        skip = (tokenize.COMMENT, tokenize.NL)
        return sum(tok.type not in skip for tok in tokenize.tokenize(fh.readline))


def test_each_module_stays_inside_its_parser_token_block():
    counts = {path.name: _tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert len(counts) > 5
    over = {name: n for name, n in counts.items() if n >= _TOKEN_BLOCKS.get(name, 4096)}
    assert over == {}
