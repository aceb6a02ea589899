"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import numpy.fft
import pytest

import halfheat
import halfheat.cli
import halfheat.experiments
import halfheat.grid
import halfheat.solver
from halfheat import SolverOptions, generate_coefficients, make_grid
from halfheat.experiments import ExperimentConfig, harmonic_bundle
from perfbench import run, spans, stats, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("a.leaf", 2.0, 3.0, parent=1),
        spans.Span("b", 3.5, 7.0, parent=0),  # overlaps a: union 1..7 is counted once
        spans.Span("fft", 5.0, 6.0, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 1.0])
    assert spans.covered(tree[1:3]) == pytest.approx(3.0)
    assert spans._layer(tree, tree[4]) == "b"


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_reporting_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.reporting_percentile(n) == expected


def test_summary_reads_the_nearest_rank():
    s = stats.summary(range(1, 101))
    assert (s["n"], s["median"], s["percentile"], s["value"]) == (100, 50.5, 90.0, 90.0)


def test_forced_unconverged_solve_counts_as_failure():
    grid = make_grid(1, 16, 16, 2.0, 2.0)
    coeffs = generate_coefficients("time_piecewise", 0.25, 0, grid)
    data = harmonic_bundle(grid, np.random.default_rng(0), 1.0)

    def unchecked_solve():
        # like an experiment that never looks at converged
        halfheat.experiments.solve(coeffs, data, SolverOptions(max_iterations=1, restart=1))
        return True, "", []

    watch = spans.SolveWatch()
    with spans.Patches() as patches:
        watch.install(patches)
        records = [
            workloads.run_operation("forced", 0, unchecked_solve, watch),
            workloads.run_operation("clean", 0, lambda: (True, "", []), watch),
        ]
    assert [ok for _, ok in watch.results] == [False]
    assert [r["passed"] for r in records] == [False, True]
    assert "converged=False" in records[0]["reason"]
    assert run.tally(records) == (2, 1)


def test_raising_operation_fails():
    def boom():
        raise ValueError("bad input")

    record = workloads.run_operation("boom", 3, boom, spans.SolveWatch())
    assert not record["passed"] and "ValueError: bad input" in record["reason"]


def test_changed_digest_of_a_repeated_seed_fails():
    op = {"label": "l2", "seed": 1, "passed": True, "reason": "", "digest": "a"}
    other = {**op, "seed": 2, "digest": "b"}
    reports = [{"cycles": [{"ops": [dict(op), dict(other)]}, {"ops": [dict(op), dict(other)]}]},
               {"cycles": [{"ops": [{**op, "digest": "c"}]}]}]
    assert run.tally(run.judge(reports)) == (5, 1)


def _bindings():
    return {
        "solver.solve": halfheat.solver.solve,
        "experiments.solve": halfheat.experiments.solve,
        "cli.solve": halfheat.cli.solve,
        "package.solve": halfheat.solve,
        "experiments.run_l2_trials": halfheat.experiments.run_l2_trials,
        "experiments.write_outputs": halfheat.experiments.write_outputs,
        "cli.main": halfheat.cli.main,
        "solver.gmres": halfheat.solver.gmres,
        "solver.LinearOperator": halfheat.solver.LinearOperator,
        "Field.__init__": vars(halfheat.grid.Field)["__init__"],
        "numpy.fft.fft": numpy.fft.fft,
        "numpy.fft.fftn": numpy.fft.fftn,
    }


def test_traced_run_records_spans_and_removes_wrappers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _bindings()
    config = ExperimentConfig.from_mapping(
        {"grid": {"d": 1, "n_t": 16, "n_x": 16}, "trials": 2,
         "coefficients": {"kind": "time_piecewise", "delta": 0.5}},
        kind="l2",
    )
    op = workloads.Operation("l2", 0, "out", config)
    tracer = spans.Tracer("test")
    watch = spans.SolveWatch()
    with spans.Patches() as patches:
        watch.install(patches)
        spans.install_tracing(tracer, patches)
        assert halfheat.experiments.solve is not before["experiments.solve"]
        assert vars(halfheat.grid.Field)["__init__"] is not before["Field.__init__"]
        record = workloads.run_operation("l2", 0, partial(workloads.execute, op), watch)
    assert _bindings() == before
    assert record["passed"]
    metrics = spans.layer_metrics(tracer.spans, watch.results, 0.1, 1.0)
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _, _ in spans.PER_LAYER}
    assert metrics["solver.solve.calls"] == 2
    assert metrics["solver.iterations"] == sum(it for it, _ in watch.results) > 0
    assert metrics["solver.matvecs"] > 0 and metrics["solver.precond.calls"] > 0
    assert metrics["grid.Field.calls"] > 0 and metrics["experiments.write_outputs.mb"] > 0
    assert all(s.end >= s.start for s in tracer.spans)


def test_tracing_leaves_outputs_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = workloads.Operation("tail_decay", 0, "out",
                             ExperimentConfig.from_mapping({}, kind="tail_decay"))
    plain = workloads.run_operation("tail_decay", 0, partial(workloads.execute, op), spans.SolveWatch())
    with spans.Patches() as patches:
        spans.install_tracing(spans.Tracer("test"), patches)
        traced = workloads.run_operation("tail_decay", 0, partial(workloads.execute, op), spans.SolveWatch())
    assert plain["digest"] == traced["digest"] is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_identical_for_one_seed(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(tmp_path)

    def inputs(seed, work_dir):
        ops = workloads.build_inputs(workload, seed, work_dir)
        files = sorted((p.name, p.read_bytes()) for p in Path(work_dir).rglob("*.json"))
        return [
            (op.label, op.seed, halfheat.experiments.config_hash(op.config)
             if isinstance(op.config, ExperimentConfig) else op.config[:2])
            for op in ops
        ], files

    assert inputs(5, "a") == inputs(5, "b")
    if workload != "oscillation":
        assert inputs(5, "a") != inputs(6, "c")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in spans.PER_LAYER
    ]


def test_missing_package_exits_without_result(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
