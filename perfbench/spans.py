"""Spans recorded from outside the package, and the per-layer metrics built
from them.

The traced run replaces each traced public function wherever a ``halfheat``
module binds it, wraps ``Field.__init__``, the ``numpy.fft``/``scipy.fft``
entry points, and the ``gmres``/``LinearOperator`` names bound in
``halfheat.solver``.  Every replacement is undone when the ``Patches`` context
exits.  Spans are kept in memory; the caller writes them out when the run
ends.  The recorder keeps one stack of open spans, which holds because the
experiments run their trials inline while ``HALFHEAT_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench import stats

# Public functions wrapped in the traced run, by halfheat module.  Spans are
# named "<module>.<function>".
TRACED = {
    "timeops": (
        "time_symbol",
        "apply_time_symbol",
        "hilbert",
        "half_derivative",
        "time_derivative",
        "cutoff_commutator",
    ),
    "coefficients": (
        "generate_coefficients",
        "check_assumption_time",
        "check_assumption_x1",
    ),
    "operators": (
        "gradient_plus",
        "divergence_minus",
        "matrix_gradient",
        "apply_operator",
        "apply_rhs",
        "manufacture_data",
    ),
    "solver": ("solve", "solve_oracle", "compute_bundles"),
    "oscillation": ("verify_mean_oscillation", "verify_local_estimate"),
    "experiments": (
        "run_identity_suite",
        "run_l2_trials",
        "run_lp_sweep",
        "run_tail_decay",
        "run_oscillation_experiments",
        "run_assumption_report",
    ),
    "cli": ("main",),
    "expressions": ("field_from_expression",),
    "htpf": ("write_field",),
}
# The random-field builders of the experiment harness; their covered time is
# experiments.inputs.s.
INPUT_BUILDERS = (
    "random_band_limited_field",
    "harmonic_field",
    "harmonic_bundle",
    "_band_limited_bundle",
    "_localized_bundle",
)
FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
)
MB = 1e6

# Every per-layer metric: name, unit, and the end-to-end metric and workload
# it is predicted to move.
PER_LAYER = (
    ("grid.Field.calls", "count", "desk run_s"),
    ("grid.Field.s", "s", "desk run_s"),
    ("timeops.apply_time_symbol.calls", "count", "run_s: oscillation most, lp_sweep_d2 less, desk ~0"),
    ("timeops.apply_time_symbol.self_s", "s", "run_s: oscillation most, lp_sweep_d2 less, desk ~0"),
    ("timeops.time_symbol.calls", "count", "run_s: oscillation most, lp_sweep_d2 less, desk ~0"),
    ("timeops.fft.s", "s", "run_s: oscillation most, lp_sweep_d2 less, desk ~0"),
    ("timeops.fft.mb", "MB", "run_s: oscillation most, lp_sweep_d2 less, desk ~0"),
    ("operators.apply_operator.calls", "count", "lp_sweep_d2 and desk run_s"),
    ("operators.apply_operator.self_s", "s", "lp_sweep_d2 and desk run_s"),
    ("operators.matrix_gradient.s", "s", "lp_sweep_d2 and desk run_s"),
    ("operators.divergence_minus.s", "s", "lp_sweep_d2 and desk run_s"),
    ("operators.gradient_plus.s", "s", "lp_sweep_d2 and desk run_s"),
    ("operators.apply_rhs.s", "s", "lp_sweep_d2 and desk run_s"),
    ("solver.solve.calls", "count", "lp_sweep_d2 run_s"),
    ("solver.solve.s", "s", "lp_sweep_d2 run_s"),
    ("solver.iterations", "count", "lp_sweep_d2 run_s"),
    ("solver.matvecs", "count", "lp_sweep_d2 run_s"),
    ("solver.s_per_iteration", "s/iteration", "lp_sweep_d2 run_s"),
    ("solver.gmres.passes", "count", "lp_sweep_d2 run_s"),
    ("solver.unconverged", "count", "lp_sweep_d2 run_s"),
    ("solver.precond.calls", "count", "lp_sweep_d2 and oscillation run_s"),
    ("solver.precond.s", "s", "lp_sweep_d2 and oscillation run_s"),
    ("solver.fftn.mb", "MB", "lp_sweep_d2 and oscillation run_s"),
    ("solver.gmres.self_s", "s", "lp_sweep_d2 cpu_s"),
    ("solver.solve_oracle.s", "s", "desk and oscillation run_s"),
    ("solver.compute_bundles.s", "s", "desk and oscillation run_s"),
    ("solver.krylov_basis.mb", "MB", "oscillation peak_rss_mb"),
    ("coefficients.generate_coefficients.s", "s", "desk run_s only"),
    ("coefficients.check_assumption_time.s", "s", "desk run_s only"),
    ("coefficients.check_assumption_x1.s", "s", "desk run_s only"),
    ("oscillation.verify_mean_oscillation.s", "s", "oscillation run_s"),
    ("oscillation.verify_local_estimate.s", "s", "oscillation run_s"),
    *(
        (f"experiments.{name}.s", "s", "desk run_s")
        for name in TRACED["experiments"]
    ),
    ("experiments.inputs.s", "s", "desk run_s"),
    ("experiments.write_outputs.s", "s", "desk run_s"),
    ("experiments.write_outputs.mb", "MB", "desk run_s"),
    ("cli.main.s", "s", "desk run_s"),
    ("expressions.field_from_expression.s", "s", "desk run_s"),
    ("htpf.write_field.s", "s", "desk run_s"),
    ("import.s", "s", "setup_s on all workloads"),
    ("trace.run_s", "s", "none: wall time of the traced cycle"),
    ("trace.overhead_s", "s", "none: traced minus untraced run_s"),
    ("trace.spans", "count", "none: spans recorded in the traced cycle"),
)
# Span families whose duration distribution the report prints.
DISTRIBUTIONS = ("solver.matvec", "solver.precond", "timeops.apply_time_symbol", "grid.Field")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    nbytes: int = 0  # computed from array or file sizes, never measured


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """fn recording one span per call; size(args, kwargs, result) gives
        the span's computed byte count."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if size is not None:
                span.nbytes = size(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "computed_bytes": s.nbytes,
                        }
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_bindings(self, module: str, attr: str, make_wrapper):
        """Replace module.attr, and every halfheat binding of the same object,
        by make_wrapper(current object)."""
        current = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(current)
        for name in sorted(sys.modules):
            owner = sys.modules[name]
            if owner is None or not (name == "halfheat" or name.startswith("halfheat.")):
                continue
            for key, value in list(vars(owner).items()):
                if value is current:
                    self.set(owner, key, wrapper)
        return wrapper

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SolveWatch:
    """Records (iterations, converged) of every halfheat.solver.solve call,
    in traced and untraced runs alike."""

    def __init__(self):
        self.results: list[tuple[int, bool]] = []

    def install(self, patches: Patches) -> None:
        def make(fn):
            @functools.wraps(fn)
            def watched(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.results.append((int(result.iterations), bool(result.converged)))
                return result

            return watched

        patches.wrap_bindings("halfheat.solver", "solve", make)


def _array_bytes(args, kwargs, result) -> int:
    import numpy as np

    source = args[0] if args else next(iter(kwargs.values()))
    return int(np.asarray(source).nbytes + np.asarray(result).nbytes)


def _file_bytes(args, kwargs, result) -> int:
    return sum(Path(p).stat().st_size for p in result)


def _krylov_bytes(args, kwargs, result) -> int:
    # scipy's gmres keeps restart + 1 basis vectors of the right-hand side's size
    b = args[1] if len(args) > 1 else kwargs["b"]
    return (int(kwargs.get("restart") or 20) + 1) * int(b.nbytes)


def install_tracing(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced binding; the patches undo it."""
    import numpy.fft
    import scipy.fft

    import halfheat.experiments
    import halfheat.grid
    import halfheat.solver

    for module, names in TRACED.items():
        for name in names:
            patches.wrap_bindings(
                f"halfheat.{module}",
                name,
                functools.partial(tracer.wrap, f"{module}.{name}"),
            )
    for name in INPUT_BUILDERS:
        patches.wrap_bindings(
            "halfheat.experiments", name, functools.partial(tracer.wrap, f"experiments.{name}")
        )
    patches.wrap_bindings(
        "halfheat.experiments",
        "write_outputs",
        lambda fn: tracer.wrap("experiments.write_outputs", fn, _file_bytes),
    )
    field = halfheat.grid.Field
    patches.set(field, "__init__", tracer.wrap("grid.Field", vars(field)["__init__"]))
    for namespace in (numpy.fft, scipy.fft):
        for name in FFT_FUNCTIONS:
            if hasattr(namespace, name):
                patches.set(namespace, name, tracer.wrap("fft", getattr(namespace, name), _array_bytes))

    solver = halfheat.solver
    patches.set(solver, "gmres", tracer.wrap("solver.gmres", solver.gmres, _krylov_bytes))
    linear_operator = solver.LinearOperator

    def traced_linear_operator(*args, **kwargs):
        # solve() names its preconditioner closure psolve and its operator matvec
        fn = kwargs["matvec"]
        name = "solver.precond" if fn.__name__ == "psolve" else "solver.matvec"
        kwargs["matvec"] = tracer.wrap(name, fn)
        return linear_operator(*args, **kwargs)

    patches.set(solver, "LinearOperator", traced_linear_operator)


def covered(spans) -> float:
    """Length of the union of the spans' [start, end] intervals."""
    total = 0.0
    reach = float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.end - s.start - covered(children[i]) for i, s in enumerate(spans)]


def _layer(spans: list[Span], span: Span) -> str:
    """Module of the nearest enclosing span that is not itself an FFT call."""
    while span.parent is not None:
        span = spans[span.parent]
        if span.name != "fft":
            return span.name.split(".")[0]
    return "benchmark"


def layer_metrics(
    spans: list[Span], solves: list[tuple[int, bool]], import_s: float, run_s: float
) -> dict[str, float]:
    """Every PER_LAYER metric of one traced cycle but trace.overhead_s, which
    needs the untraced cycle."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        by_name[s.name].append(s)
        self_by_name[s.name] += own
    fft_s: dict[str, list[Span]] = defaultdict(list)
    for s in by_name["fft"]:
        fft_s[_layer(spans, s)].append(s)

    def secs(name: str) -> float:
        return covered(by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    iterations = sum(it for it, _ in solves)
    gmres_s = secs("solver.gmres")
    out = {
        "grid.Field.calls": calls("grid.Field"),
        "grid.Field.s": secs("grid.Field"),
        "timeops.apply_time_symbol.calls": calls("timeops.apply_time_symbol"),
        "timeops.apply_time_symbol.self_s": self_by_name["timeops.apply_time_symbol"],
        "timeops.time_symbol.calls": calls("timeops.time_symbol"),
        "timeops.fft.s": covered(fft_s["timeops"]),
        "timeops.fft.mb": sum(s.nbytes for s in fft_s["timeops"]) / MB,
        "operators.apply_operator.calls": calls("operators.apply_operator"),
        "operators.apply_operator.self_s": self_by_name["operators.apply_operator"],
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.s": secs("solver.solve"),
        "solver.iterations": iterations,
        "solver.matvecs": calls("solver.matvec"),
        "solver.s_per_iteration": gmres_s / iterations if iterations else 0.0,
        "solver.gmres.passes": calls("solver.gmres"),
        "solver.unconverged": sum(not ok for _, ok in solves),
        "solver.precond.calls": calls("solver.precond"),
        "solver.precond.s": secs("solver.precond"),
        "solver.fftn.mb": sum(s.nbytes for s in fft_s["solver"]) / MB,
        "solver.gmres.self_s": self_by_name["solver.gmres"],
        "solver.krylov_basis.mb": max((s.nbytes for s in by_name["solver.gmres"]), default=0) / MB,
        "experiments.inputs.s": covered(
            [s for name in INPUT_BUILDERS for s in by_name[f"experiments.{name}"]]
        ),
        "experiments.write_outputs.mb": sum(s.nbytes for s in by_name["experiments.write_outputs"]) / MB,
        "import.s": import_s,
        "trace.run_s": run_s,
        "trace.spans": len(spans),
    }
    for name, unit, _ in PER_LAYER:
        if name not in out and name.endswith(".s"):
            out[name] = secs(name[: -len(".s")])
    return {name: float(out[name]) for name, _, _ in PER_LAYER if name in out}


def distributions(spans: list[Span]) -> dict[str, dict]:
    """Duration summary of each DISTRIBUTIONS span family present."""
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        if s.name in DISTRIBUTIONS:
            durations[s.name].append(s.end - s.start)
    return {name: stats.summary(values) for name, values in durations.items()}
