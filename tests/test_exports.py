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


TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def _child(code: str, **env: str) -> str:
    """The stdout of code run in a fresh interpreter that imports halfheat
    from this checkout.  OPENBLAS_THREAD_TIMEOUT reaches it only from env, so
    whatever it reads there came from the child's own imports."""
    src = str(Path(halfheat.__file__).parents[1])
    child_env = {key: value for key, value in os.environ.items() if key != TIMEOUT}
    child_env.update(env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_unloaded():
    code = "import sys, halfheat; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _child(code) == "[]"


@pytest.mark.parametrize(
    "code, env, expected",
    [
        ("import halfheat", {}, "4"),
        ("import halfheat", {TIMEOUT: "10"}, "10"),
        ("import numpy; import halfheat", {}, "None"),
    ],
    ids=["default", "user_value_kept", "numpy_loaded_first"],
)
def test_import_sets_the_blas_thread_timeout_only_when_unset(code, env, expected):
    """Importing halfheat before numpy sets OpenBLAS's idle-worker timeout to
    4 unless the user set it; once numpy has loaded OpenBLAS the variable is
    read no more, and halfheat leaves it alone."""
    assert _child(f"{code}; import os; print(os.environ.get({TIMEOUT!r}))", **env) == expected


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or os.environ.get("OPENBLAS_NUM_THREADS") == "1",
    reason="one BLAS thread: no idle worker",
)
def test_blas_worker_sleeps_after_a_product():
    """After a threaded 512x512 product the process burns almost no CPU over
    the next 0.3 s: OpenBLAS's idle worker sleeps at once.  With OpenBLAS's
    own timeout it spins about 0.08 s of them.  Skipped on one core or under
    OPENBLAS_NUM_THREADS=1, where OpenBLAS starts no second thread."""
    code = """
import halfheat, resource, time
import numpy as np
a = np.random.default_rng(0).standard_normal((512, 512))
a @ a
before = resource.getrusage(resource.RUSAGE_SELF)
time.sleep(0.3)
after = resource.getrusage(resource.RUSAGE_SELF)
print(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
"""
    assert float(_child(code)) < 0.02


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
    last bits of the outputs.  Matrix products (@) stay allowed."""
    found = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, node.lineno) for node in ast.walk(tree) if _blas_reduction(node)]
    assert found == []


def _operator_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, positional argument count) of each call of
    operators._operator in tree."""
    return [
        (func.name, len(node.args))
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_operator"
    ]


def test_one_module_call_makes_the_operator_parts():
    """Every solve path and both verifiers judge u by one residual check,
    solver._check, the only caller that asks the A u kernel, operators._operator,
    for a time multiplier beside A u: a second residual pipeline (the oracle
    kept its own until it became a start of solve) would measure u in other
    bits."""
    calls = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [(path.name, func) for func, args in _operator_calls(tree) if args > 3]
    assert calls == [("solver.py", "_check")]


def _reads_float_limits(node: ast.AST) -> bool:
    """A frexp call (math.frexp, np.frexp) or a read of finfo(...).tiny."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).split(".")[-1] == "frexp"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "tiny"
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).split(".")[-1] == "finfo"
    )


def test_only_grid_rescales_near_the_float_limits():
    """grid.py holds the norm kernels and the one exact power-of-two rule for
    squared sums (_exponent): no other module reads a peak's exponent or the
    smallest normal float to guard its own sums."""
    found = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [path.name for node in ast.walk(tree) if _reads_float_limits(node)]
    assert found and set(found) == {"grid.py"}


def _names_square_sum(node: ast.AST) -> bool:
    """A use of _square_sum: a call or a bare name, an attribute or an import."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
    return name == "_square_sum" and not isinstance(node, ast.FunctionDef)


def test_only_grid_squares_a_bundle():
    """|U|^2 of a bundle's slots is made by grid._square_sum under grid's
    power-of-two rule (_squares, _magnitude): a module squaring slots itself
    would overflow above about 1e154, where the rule rescales exactly."""
    uses = []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses += [path.name for node in ast.walk(tree) if _names_square_sum(node)]
    assert uses and set(uses) == {"grid.py"}


def _time_transforms(tree: ast.Module) -> list[ast.Call]:
    """The np.fft.rfft calls along axis 0, but for those of
    half_derivative_quadrature, the tests' independent reference."""
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "half_derivative_quadrature"
        for node in ast.walk(func)
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in exempt
        and ast.unparse(node.func) == "np.fft.rfft"
        and any(k.arg == "axis" and ast.unparse(k.value) == "0" for k in node.keywords)
    ]


def test_time_transforms_run_on_a_time_contiguous_copy():
    """Every transform along time is timeops': outside
    half_derivative_quadrature, the one rfft along axis 0 of any module is in
    timeops.py and takes _time_major(...), only timeops imports _time_major,
    and no np.ascontiguousarray is left in operators, solver or timeops: each
    path makes its arrays in C order, with grid's blocked copies where a
    layout changes.  A one-pass copy or transform across a transposed
    power-of-two grid misses the cache on almost every sample."""
    found, transforms = [], []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        name = path.name
        tree = ast.parse(path.read_text())
        if name in ("operators.py", "solver.py", "timeops.py"):
            found += [
                (name, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.ascontiguousarray"
            ]
        found += [
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "_time_major" for alias in node.names)
            and name != "timeops.py"
        ]
        for node in _time_transforms(tree):
            transforms.append(name)
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Call) and ast.unparse(first.func) == "_time_major"):
                found.append((name, node.lineno))
    assert transforms == ["timeops.py"] and found == []


def test_cli_reads_configs_through_experiments():
    """cli.py is the front end: every config section is read in
    experiments.py, so the CLI takes from it only the experiments, their
    config, the solve reader and the output writer, and builds no grid,
    operator or expression itself."""
    imported = {}
    for node in ast.walk(ast.parse((Path(halfheat.__file__).parent / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert imported["experiments"] == {
        "EXPERIMENTS", "ExperimentConfig", "_solve_problem", "write_outputs"
    }
    assert not {"grid", "operators", "expressions"} & set(imported)


def test_one_function_writes_json_output():
    """Every JSON output file has one format, stated once: the only
    json.dumps with an indent is htpf._write_json's."""
    found, in_writer = [], []
    for path in sorted(Path(halfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {
            id(node): (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "json.dumps"
            and any(k.arg == "indent" for k in node.keywords)
        }
        found += calls.values()
        in_writer += [
            calls[id(node)]
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "_write_json"
            for node in ast.walk(func)
            if id(node) in calls
        ]
    assert len(found) == 1 and found == in_writer and found[0][0] == "htpf.py"


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or a class, or
    the plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [
        leaf.id
        for target in targets
        if target is not None
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name)
    ]


def _named(tree: ast.Module) -> list[str]:
    """Every name a module reads, imports or lists as a string (``__all__``):
    names, attributes, imported names and string constants."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
    return found


def test_no_module_keeps_dead_code():
    """Dead-code guard, in place of a linter: every name a module but the
    package's ``__init__`` imports is read in it (or re-exported through its
    ``__all__``), and every private
    module-level function, class or constant is named somewhere in the
    package besides its definition.  A kernel merged away leaves neither a
    stale import nor an orphaned helper behind."""
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(halfheat.__file__).parent.glob("*.py"))
    }
    unused, orphans = [], []
    everywhere = [name for tree in trees.values() for name in _named(tree)]
    for name, tree in trees.items():
        reads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        reads |= {
            node.value.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
        reads |= {
            node.value
            for stmt in tree.body
            if "__all__" in _bound_names(stmt)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Constant)
        }
        for node in tree.body:
            # the package's own imports are its namespace, which
            # test_package_namespace_resolves checks
            imports = isinstance(node, (ast.Import, ast.ImportFrom)) and name != "__init__.py"
            if imports and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in reads:
                        unused.append((name, bound))
            for defined in _bound_names(node):
                private = defined.startswith("_") and not defined.startswith("__")
                if private and everywhere.count(defined) == 0:
                    orphans.append((name, defined))
    assert unused == [] and orphans == []
