"""Module layout: no scwde module imports another scwde module's private
names, every public function or class has a caller in the package, every
parameter default of a public function is overridden by some package call,
no module makes a BLAS call, one driver calls the window kernel, and one
module reads the success policy.

A private helper (leading underscore) belongs to the module that defines it;
a module that needs it should go through that module's public functions. A
public name that only tests call is a test oracle and lives in the tests.
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


def unreferenced_public_names(paths: list[Path]) -> list[str]:
    """``module.name`` for every public top-level function or class in
    ``paths`` whose name no code among ``paths`` uses (as a name or an
    attribute) outside its own definition."""
    statements = [(path, node) for path in paths
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    used = [(node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for _, node in statements]
    return [f"{path.stem}.{node.name}" for path, node in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in names for other, names in used if other is not node)]


def unset_defaults(paths: list[Path]) -> list[str]:
    """``module.function(parameter)`` for every parameter with a default, of
    every public top-level function in ``paths``, that no call among
    ``paths`` to that function's name (as a name or an attribute) passes, by
    keyword or by position."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    found = []
    for path, tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            positional = node.args.posonlyargs + node.args.args
            defaulted = [(i, arg) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(None, arg) for arg, default in
                          zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
            found += [f"{path.stem}.{node.name}({arg.arg})" for i, arg in defaulted
                      if not any(any(k.arg == arg.arg for k in call.keywords)
                                 or (i is not None and i < len(call.args))
                                 for call in calls.get(node.name, []))]
    return found


def call_sites(paths: list[Path], name: str) -> list[str]:
    """``module:line`` of every call in ``paths`` to ``name``, as a name or
    an attribute."""
    return [f"{path.stem}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def attribute_reads(paths: list[Path], name: str) -> list[str]:
    """``module:line`` of every read of an attribute ``name`` in ``paths``."""
    return [f"{path.stem}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.ctx, ast.Load)]


# numpy names whose work goes to BLAS or LAPACK
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "lstsq",
              "polyfit"}


def blas_uses(path: Path) -> list[str]:
    """``line:name``, in line order, for every ``@`` in ``path`` and every BLAS
    name it reads as an attribute (``np.dot``, ``x.dot``) or imports (``from
    numpy import dot``, ``import numpy.linalg``); a local variable of such a
    name is not a call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = (node.module or "").split(".") if isinstance(node, ast.ImportFrom) else []
            for alias in node.names:
                found += [(node.lineno, name) for name in parts + alias.name.split(".")
                          if name in BLAS_NAMES]
    return [f"{line}:{name}" for line, name in sorted(found)]


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


def test_every_public_name_has_a_caller_in_the_package():
    # __init__.py re-exports names; an export is not a caller
    assert unreferenced_public_names([p for p in SOURCES if p.name != "__init__.py"]) == []


def test_unreferenced_public_names_detected(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return used()\n\n"
                                   "class Lonely:\n    def m(self):\n        return Lonely\n\n"
                                   "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nVALUE = used\n\n"
                                   "def check():\n    return obj.check\n")
    # Lonely and check name themselves only inside their own definitions
    assert unreferenced_public_names(sorted(tmp_path.glob("*.py"))) == [
        "a.Lonely", "b.check"]


def test_every_default_is_passed_by_the_package():
    # a default no package call overrides is a knob only tests turn; the
    # console script calls main() with no arguments
    found = unset_defaults([p for p in SOURCES if p.name != "__init__.py"])
    assert [name for name in found if name != "cli.main(argv)"] == []


def test_unset_defaults_detected(tmp_path):
    (tmp_path / "a.py").write_text("def run(x, y=1, z=2, *, k=3, m=4):\n    return x\n\n"
                                   "def lonely(q=1):\n    return run(q, z=q)\n\n"
                                   "def _private(p=1):\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import lonely, run\n\n"
                                   "run(0, 1)\nmod.run(0, k=5)\nlonely()\n")
    # y is passed by position, z and k by keyword, m and q never
    assert unset_defaults(sorted(tmp_path.glob("*.py"))) == [
        "a.run(m)", "a.lonely(q)"]


def test_one_driver_calls_the_window_kernel():
    # a single chain is the one-column case of run_columns: a second caller
    # of the kernel would be a second driver beside it
    assert [site.split(":")[0] for site in call_sites(SOURCES, "_window_kernel")] == ["window"]


def test_call_sites_detected(tmp_path):
    (tmp_path / "a.py").write_text("def _kernel():\n    pass\n\n"
                                   "def run():\n    _kernel()\n    return _kernel\n")
    (tmp_path / "b.py").write_text("import a\n\n\ndef other():\n    a._kernel()\n")
    # a reference that is not a call does not count
    assert call_sites(sorted(tmp_path.glob("*.py")), "_kernel") == ["a:5", "b:5"]


def test_the_success_policy_is_read_in_one_module():
    # the success verdict and the T search's stop hook both live in speed.py,
    # so a second reader of SuccessRule.policy would be a second copy of it
    assert [site for site in attribute_reads(SOURCES, "policy")
            if not site.startswith("speed:")] == []


def test_attribute_reads_detected(tmp_path):
    (tmp_path / "a.py").write_text("rule.policy = 1\nmetric = rule.policy\nf(cfg.success.policy)\n")
    (tmp_path / "b.py").write_text("policy = record.get('policy')\nlabel = r.success_policy\n")
    # a store, a name, a key and another attribute do not count
    assert attribute_reads(sorted(tmp_path.glob("*.py")), "policy") == ["a:2", "a:3"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_call(path):
    assert blas_uses(path) == [], (
        "the package sets OPENBLAS_NUM_THREADS=1 because it makes no BLAS call; "
        "adding one means revisiting that one-thread default in scwde/__init__.py")


def test_blas_uses_detected(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n"
                   "import numpy.linalg\n"
                   "from numpy import einsum, sum\n"
                   "from numpy.linalg import solve\n"
                   "inner = 1.0 - x\n"
                   "a = np.dot(x, y) + x.vdot(y)\n"
                   "b = x @ y\n"
                   "b @= y\n"
                   "c = np.polyfit(x, y, 2)\n")
    assert blas_uses(src) == ["2:linalg", "3:einsum", "4:linalg", "6:dot", "6:vdot",
                              "7:@", "8:@", "9:polyfit"]
