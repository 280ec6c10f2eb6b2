"""Package hygiene: no module imports a private name from another module."""

from __future__ import annotations

import ast
import pathlib

import hjsys

SRC = pathlib.Path(hjsys.__file__).parent


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
