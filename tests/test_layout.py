"""Module layout: no scwde module imports another scwde module's private names.

A private helper (leading underscore) belongs to the module that defines it;
a module that needs it should go through that module's public functions.
"""

import ast
from pathlib import Path

import pytest

import scwde

SOURCES = sorted(Path(scwde.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore name imported from a scwde module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "scwde":
            continue
        found += [f"{'.' * node.level}{module}.{alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_sources_found():
    assert {"window.py", "coupled.py", "speed.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    assert private_imports(path) == []


def test_private_imports_detected(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "from .window import CoupledSpec, _padded\n"
                   "from scwde.speed import _FrozenPrefixStop\n"
                   "from os import _exit\n")
    assert private_imports(src) == [".window._padded", "scwde.speed._FrozenPrefixStop"]
