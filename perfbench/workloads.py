"""Workload inputs and the operations a workload cycle runs.

An operation is one experiment call (plus ``write_outputs``) or one in-process
CLI call.  It fails when it reports ``passed=false`` or a non-zero exit code,
raises, or makes a ``solve`` call that returns ``converged=False``.  A cycle
runs every operation of the workload once.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import re
import resource
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import halfheat
from halfheat import cli, experiments
from halfheat.experiments import ExperimentConfig

WORKLOADS = ("oscillation", "lp_sweep_d2", "desk")

# Acceptance criterion 6's d=2 sweep one refinement level down (32^3, doubled
# to 64^3).  The coefficient seed is fixed so that --seed moves only the data:
# across coefficient seeds the sweep's GMRES work ranges over 2x (279 to 587
# iterations), while across data seeds it stays within a few percent.
LP_SWEEP_D2 = {
    "grid": {"d": 2, "n_t": 32, "n_x": 32, "l_t": 2.0, "l_x": 2.0},
    "coefficients": {"kinds": ["time_piecewise", "x1_piecewise"], "delta": 0.25, "seed": 0},
    "lambdas": [1.0, 4.0, 16.0, 64.0],
    "p_list": [1.5, 3.0, 4.0],
    "trials": 1,
}
DESK_EXPERIMENTS = ("identities", "l2", "lp_sweep", "tail_decay", "assumptions")
DESK_SEEDS_PER_CYCLE = 4


@dataclass(frozen=True)
class Operation:
    label: str  # experiment kind, or "cli.solve"
    seed: int
    out_dir: str  # relative to the checkout root
    config: object  # ExperimentConfig, or the CLI argument list


def _solve_config(seed: int) -> dict:
    """A smooth-coefficient GMRES solve whose data are expressions."""
    return {
        "grid": {"d": 1, "n_t": 64, "n_x": 64, "l_t": 2.0, "l_x": 2.0},
        "coefficients": {"kind": "smooth", "delta": 0.5, "seed": seed},
        "lambda": 1.0,
        "data": {
            "h": f"noise({seed}, 0.25)",
            "g": [f"sin(pi*x1)*cos(pi*t) + 0.3*noise({seed + 1}, 0.5)"],
            "f": "exp(-x1*x1)*gauss(0, 0.25)",
        },
    }


def build_inputs(workload: str, seed: int, work_dir: str) -> list[Operation]:
    """The operations of one cycle; the same (workload, seed) gives the same
    operations and input files."""
    out = f"{work_dir}/out"
    if workload == "oscillation":
        # acceptance criterion 8: the default config, seed 0, whatever --seed is
        config = ExperimentConfig.from_mapping({}, kind="oscillation")
        return [Operation("oscillation", config.seed, f"{out}/oscillation-0", config)]
    if workload == "lp_sweep_d2":
        config = ExperimentConfig.from_mapping({**LP_SWEEP_D2, "seed": seed}, kind="lp_sweep")
        return [Operation("lp_sweep", seed, f"{out}/lp_sweep-{seed}", config)]
    if workload != "desk":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    inputs = Path(work_dir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for s in range(seed, seed + DESK_SEEDS_PER_CYCLE):
        for kind in DESK_EXPERIMENTS:
            config = ExperimentConfig.from_mapping({"seed": s}, kind=kind)
            ops.append(Operation(kind, s, f"{out}/{kind}-{s}", config))
        path = inputs / f"solve-{s}.json"
        path.write_text(json.dumps(_solve_config(s), sort_keys=True, indent=2) + "\n")
        solve_out = f"{out}/cli.solve-{s}"
        argv = ("solve", "--config", str(path), "--out", solve_out)
        ops.append(Operation("cli.solve", s, solve_out, argv))
    return ops


def execute(op: Operation) -> tuple[bool, str, list[Path]]:
    """Run one operation through the package's module attributes, so that a
    traced run sees its wrappers.  Returns (passed, reason, output files)."""
    out = Path(op.out_dir)
    if op.label == "cli.solve":
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(list(op.config))
        return code == 0, captured.getvalue().strip(), [out / "u.htpf", out / "result.json"]
    runner = getattr(experiments, experiments.EXPERIMENTS[op.label].__name__)
    result = runner(op.config)
    paths = experiments.write_outputs(result, out)
    return result.passed, "; ".join(result.failures), list(paths)


def output_digest(files: list[Path]) -> str:
    """sha256 over the output files; result.json without its wall time."""
    h = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        if path.name == "result.json":
            payload = json.loads(data)
            payload.pop("wall_time", None)
            data = json.dumps(payload, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


def run_operation(label: str, seed: int, call, watch) -> dict:
    """Run call() -> (passed, reason, files) and judge it; unconverged solves
    seen by the SolveWatch during the call fail it."""
    first = len(watch.results)
    digest = None
    try:
        passed, reason, files = call()
        digest = output_digest(files)
    except Exception as exc:  # an operation that raises is a failed operation
        passed = False
        reason = f"raised {type(exc).__name__}: {exc} | " + " / ".join(
            traceback.format_exc().strip().splitlines()[-3:]
        )
    unconverged = sum(not ok for _, ok in watch.results[first:])
    if unconverged:
        passed = False
        reason = f"{unconverged} solve(s) returned converged=False; {reason}"
    return {
        "label": label,
        "seed": seed,
        "passed": bool(passed),
        "reason": reason,
        "digest": digest,
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_cycle(ops: list[Operation], watch) -> dict:
    """Every operation once; wall and CPU time (all threads) of the cycle."""
    wall0, cpu0 = perf_counter(), _cpu_s()
    records = [run_operation(op.label, op.seed, partial(execute, op), watch) for op in ops]
    return {"wall_s": perf_counter() - wall0, "cpu_s": _cpu_s() - cpu0, "ops": records}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def library_environment() -> dict:
    """Package versions and the thread count of each loaded OpenBLAS."""
    blas = {}
    with open("/proc/self/maps") as maps:
        libraries = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas[Path(path).name] = fn()
                break
    return {
        "halfheat": halfheat.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas,
    }
