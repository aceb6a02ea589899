"""Export lists stay honest: every name a module lists in ``__all__`` exists,
and every name the package re-exports is listed by the module it comes from.
A deleted function that an export list still names fails here.  The package
needs numpy only: no module imports scipy, and importing it loads none."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import halfheat

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(halfheat.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"halfheat.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    for attr in exported:
        getattr(module, attr)


def test_package_namespace_resolves():
    tree = ast.parse(Path(halfheat.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"halfheat.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(halfheat, alias.asname or alias.name) is getattr(module, alias.name)


def _assigned_literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py assigns no {name}")


def test_names_perfbench_binds_resolve():
    """perfbench's traced run (`perfbench/run.py --trace 1`) looks up halfheat
    names as strings: each TRACED function in its module, the input builders
    and write_outputs in experiments, and the gmres and LinearOperator
    bindings of the solver.  A rename in the package must fail here, not
    only in perfbench's own tests."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    for module, names in _assigned_literal(tree, "TRACED").items():
        namespace = vars(importlib.import_module(f"halfheat.{module}"))
        for name in names:
            assert callable(namespace.get(name)), f"{module}.{name}"
    experiments = vars(importlib.import_module("halfheat.experiments"))
    for name in (*_assigned_literal(tree, "INPUT_BUILDERS"), "write_outputs"):
        assert callable(experiments.get(name)), f"experiments.{name}"
    solver = vars(importlib.import_module("halfheat.solver"))
    assert "gmres" in solver and "LinearOperator" in solver


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def test_no_module_imports_scipy():
    """The runtime is numpy only: no scipy import anywhere in a module, at
    module level or inside a function."""
    found = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, node.lineno) for node in ast.walk(tree) if _imports_scipy(node)]
    assert found == []


def test_import_leaves_scipy_unloaded():
    src = str(Path(halfheat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, halfheat; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_BLAS_REDUCTIONS = {"norm", "dot", "vdot", "inner", "vecdot"}


def _blas_reduction(node: ast.AST) -> bool:
    """np.linalg.norm, np.dot, np.vdot, np.inner, np.vecdot or any .dot(."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    func = node.func
    if func.attr == "dot":
        return True
    owner = ast.unparse(func.value)
    return func.attr in _BLAS_REDUCTIONS and owner in ("np", "np.linalg", "numpy")


def test_no_module_calls_a_threaded_blas_reduction():
    """Full-grid norms go through grid._norm, summed by numpy on one thread:
    OpenBLAS's threaded dot splits a sum by thread count, which moves the
    last bits of the outputs, and its idle worker spins after each call.
    Matrix products (@) stay allowed."""
    found = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, node.lineno) for node in ast.walk(tree) if _blas_reduction(node)]
    assert found == []


def test_one_module_call_makes_the_operator_parts():
    """Every solve path and both verifiers judge u by one residual check,
    solver._check, the only caller of operators._operator_parts: a second
    residual pipeline (the oracle kept its own until it became a start of
    solve) would measure u in other bits."""
    calls = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_operator_parts")
        ]
    assert calls == ["solver.py"]
