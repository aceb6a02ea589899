"""CLI surface: exit codes, printed JSON, output files, determinism.

main() is called in-process; one subprocess test covers the `python3 -m
halfheat` entry point.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from halfheat import experiments
from halfheat.cli import _build_problem, main
from halfheat.experiments import _CONFIG_KEYS, _coefficients_for
from halfheat.grid import make_grid
from halfheat.coefficients import generate_coefficients
from halfheat.htpf import read_field, write_coefficients, write_field
from halfheat.solver import solve_oracle


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[-1])


def _write_config(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return path


SMALL_IDENTITIES = {
    "grid": {"d": 1, "n_t": 32, "n_x": 16, "l_t": 2.0, "l_x": 2.0},
    "trials": 2,
}

SOLVE_CONFIG = {
    "grid": {"d": 1, "n_t": 16, "n_x": 16, "l_t": 2.0, "l_x": 2.0},
    "coefficients": {"kind": "constant", "delta": 0.5, "seed": 3},
    "data": {"h": "cos(t)", "g": ["x1/4"], "f": "0.5"},
    "lambda": 2.0,
}


SMALL_EXPERIMENT = {"grid": {"d": 1, "n_t": 16, "n_x": 16, "l_t": 2.0, "l_x": 2.0}}


def test_identities_command_runs_and_repeats(tmp_path, capsys):
    config = _write_config(tmp_path, "id.json", SMALL_IDENTITIES)
    args = ["identities", "--config", str(config), "--seed", "1"]
    code1, report1 = _run(capsys, args + ["--out", str(tmp_path / "a")])
    code2, report2 = _run(capsys, args + ["--out", str(tmp_path / "b")])
    assert code1 == 0 and code2 == 0
    assert report1["command"] == "identities"
    assert report1["passed"] is True
    assert report1["failures"] == []
    csv_a = tmp_path / "a" / "trials.csv"
    csv_b = tmp_path / "b" / "trials.csv"
    assert csv_a.read_bytes() == csv_b.read_bytes()
    sum_a = (tmp_path / "a" / "summary.json").read_bytes()
    sum_b = (tmp_path / "b" / "summary.json").read_bytes()
    assert sum_a == sum_b
    assert report1["outputs"]["trials"] == str(csv_a)


def test_seed_flag_changes_outputs(tmp_path, capsys):
    config = _write_config(tmp_path, "id.json", SMALL_IDENTITIES)
    base = ["identities", "--config", str(config)]
    _run(capsys, base + ["--seed", "1", "--out", str(tmp_path / "a")])
    _run(capsys, base + ["--seed", "2", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "trials.csv").read_bytes()
    b = (tmp_path / "b" / "trials.csv").read_bytes()
    assert a != b


def test_grid_override(tmp_path, capsys):
    config = _write_config(tmp_path, "id.json", SMALL_IDENTITIES)
    code, report = _run(
        capsys,
        [
            "identities",
            "--config",
            str(config),
            "--grid",
            "n_t=64",
            "--out",
            str(tmp_path / "o"),
        ],
    )
    assert code == 0
    payload = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert payload["passed"] is True
    # a different grid is a different config hash
    base_code, _ = _run(
        capsys,
        ["identities", "--config", str(config), "--out", str(tmp_path / "p")],
    )
    assert base_code == 0
    other = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert payload["config_hash"] != other["config_hash"]


def test_bad_grid_override_fails_cleanly(tmp_path, capsys):
    config = _write_config(tmp_path, "id.json", SMALL_IDENTITIES)
    code, report = _run(
        capsys, ["identities", "--config", str(config), "--grid", "n_t:64"]
    )
    assert code == 1
    assert "KEY=VALUE" in report["failures"][0]
    code, report = _run(
        capsys, ["identities", "--config", str(config), "--grid", "spam=1"]
    )
    assert code == 1
    assert "unknown grid key" in report["failures"][0]
    code, report = _run(
        capsys, ["identities", "--config", str(config), "--grid", "n_t=64.5"]
    )
    assert code == 1
    assert report["failures"] == ["'n_t' must be an integer, got '64.5'"]


def test_missing_config_file(tmp_path, capsys):
    code, report = _run(
        capsys, ["identities", "--config", str(tmp_path / "nope.json")]
    )
    assert code == 1
    assert "config not found" in report["failures"][0]


def test_malformed_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = _run(capsys, ["identities", "--config", str(bad)])
    assert code == 1
    assert "not valid JSON" in report["failures"][0]

    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    code, report = _run(capsys, ["identities", "--config", str(array)])
    assert code == 1
    assert "must hold a JSON object" in report["failures"][0]


def test_solve_needs_a_config(capsys):
    code, report = _run(capsys, ["solve"])
    assert code == 1
    assert "need --config" in report["failures"][0]


def test_solve_and_oracle(tmp_path, capsys):
    """solve sends constant coefficients to the spectral oracle, and the
    same matrix tagged general to physical-frame GMRES."""
    config = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
    code, report = _run(
        capsys, ["solve", "--config", str(config), "--out", str(tmp_path / "orc")]
    )
    assert code == 0
    assert report["converged"] is True
    assert report["iterations"] == 0
    assert report["method"] == "oracle"
    assert report["wall_time"] >= 0.0
    assert report["lambda"] == 2.0
    assert report["norms"]["ratio"] == pytest.approx(
        report["norms"]["U_2"] / report["norms"]["F_2"]
    )
    u_oracle = read_field(tmp_path / "orc" / "u.htpf")
    assert u_oracle.grid.n_t == 16

    disk = json.loads((tmp_path / "orc" / "result.json").read_text())
    assert disk["outputs"]["solution"] == report["outputs"]["solution"]
    # the oracle applies the operator once, for its residual
    assert disk["residual_history"] == [] and disk["matvecs"] == 1

    # u.htpf holds the bytes of solve_oracle's solution, at lambda = 0 too
    for lam, f in ((2.0, "0.5"), (1.0, "0.5"), (0.0, "0")):
        mapping = dict(SOLVE_CONFIG, data=dict(SOLVE_CONFIG["data"], f=f), **{"lambda": lam})
        out = tmp_path / f"sol{lam}"
        config = _write_config(tmp_path, "lam.json", mapping)
        code, report = _run(capsys, ["solve", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert report["method"] == "oracle" and report["iterations"] == 0
        coeffs, data, _ = _build_problem(mapping)
        write_field(tmp_path / "oracle.htpf", solve_oracle(coeffs, data).u)
        assert (out / "u.htpf").read_bytes() == (tmp_path / "oracle.htpf").read_bytes()

    # the same matrix tagged general goes through physical-frame GMRES
    coeffs, _, _ = _build_problem(SOLVE_CONFIG)
    sidecar = write_coefficients(tmp_path / "a", dataclasses.replace(coeffs, tag="general"))
    general = _write_config(
        tmp_path, "general.json", dict(SOLVE_CONFIG, coefficients={"file": str(sidecar)})
    )
    code, report = _run(
        capsys, ["solve", "--config", str(general), "--out", str(tmp_path / "gm")]
    )
    assert code == 0
    assert report["method"] == "gmres"
    disk = json.loads((tmp_path / "gm" / "result.json").read_text())
    history = disk["residual_history"]
    # one GMRES pass from zero: one matvec per iteration, one for the
    # recomputed residual that ends the cycle, one for the physical check
    assert len(history) == disk["iterations"] >= 1
    assert disk["matvecs"] == disk["iterations"] + 2
    # ||P^{-1} r|| / ||P^{-1} b|| ends below the first pass's target 0.1 * rtol
    assert history[-1] <= 0.1 * 1e-9
    u_gmres = read_field(tmp_path / "gm" / "u.htpf")
    scale = float(abs(u_oracle.data).max())
    assert abs(u_gmres.data - u_oracle.data).max() <= 1e-6 * scale


def test_solve_rejects_wrong_g_arity(tmp_path, capsys):
    mapping = dict(SOLVE_CONFIG)
    mapping["data"] = {"h": "cos(t)", "g": ["0", "0"]}
    config = _write_config(tmp_path, "solve.json", mapping)
    code, report = _run(capsys, ["solve", "--config", str(config)])
    assert code == 1
    assert "data.g needs 1 expressions, got 2" in report["failures"][0]


def test_solve_rejects_missing_sections(tmp_path, capsys):
    config = _write_config(tmp_path, "nogrid.json", {"data": {"h": "0"}})
    code, report = _run(capsys, ["solve", "--config", str(config)])
    assert code == 1
    assert "'grid' section" in report["failures"][0]

    config = _write_config(
        tmp_path, "nodata.json", {"grid": SOLVE_CONFIG["grid"]}
    )
    code, report = _run(capsys, ["solve", "--config", str(config)])
    assert code == 1
    assert "'data' section" in report["failures"][0]


def test_solve_honours_n_jumps():
    mapping = dict(
        SOLVE_CONFIG,
        coefficients={"kind": "time_piecewise", "n_jumps": 8, "delta": 0.5, "seed": 3},
    )
    coeffs, _, _ = _build_problem(mapping)
    assert coeffs.generator["n_jumps"] == 8


def test_mixed_sweep_reads_each_kind_its_own_key(tmp_path, capsys):
    """epsilon is the checkerboard amplitude and n_jumps the jump count of the
    piecewise kinds; a time_piecewise + checkerboard sweep with epsilon 0.375
    gives each kind its own key (epsilon is no jump count)."""
    spec = {"kinds": ["time_piecewise", "checkerboard"], "delta": 0.25, "epsilon": 0.375}
    config = _write_config(
        tmp_path, "sweep.json", dict(SMALL_EXPERIMENT, coefficients=spec, trials=1)
    )
    out = tmp_path / "sweep"
    code, report = _run(capsys, ["lp-sweep", "--config", str(config), "--out", str(out)])
    assert code == 0, report
    assert json.loads((out / "summary.json").read_text())["summary"]["kinds"] == spec["kinds"]
    grid = make_grid(d=1, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    piecewise = _coefficients_for(dict(spec, kind="time_piecewise"), grid, "constant", 0)
    checkerboard = _coefficients_for(dict(spec, kind="checkerboard"), grid, "constant", 0)
    assert piecewise.generator["n_jumps"] == 4
    assert checkerboard.generator["epsilon"] == 0.375
    # solve reads a coefficient spec with the same reader
    solve_spec = {"kind": "checkerboard", "delta": 0.25, "epsilon": 0.375, "n_jumps": 8}
    coeffs, _, _ = _build_problem(dict(SOLVE_CONFIG, coefficients=solve_spec))
    assert coeffs.generator == checkerboard.generator
    assert (coeffs.data == checkerboard.data).all()


def test_checkerboard_spec_without_delta_draws_at_a_quarter(tmp_path, capsys):
    """Every command that reads a coefficient spec draws a checkerboard with
    no delta at delta = 0.25: at delta = 1 no amplitude is admissible.  An
    explicit delta = 1 still fails with the generator's message."""
    spec = {"kind": "checkerboard"}
    config = _write_config(tmp_path, "l2.json", dict(SMALL_EXPERIMENT, coefficients=spec, trials=3))
    code, report = _run(capsys, ["l2", "--config", str(config), "--out", str(tmp_path / "l2")])
    assert code == 0, report
    coeffs, _, _ = _build_problem(dict(SOLVE_CONFIG, coefficients=spec))
    assert coeffs.generator["delta"] == 0.25
    config = _write_config(tmp_path, "solve.json", dict(SOLVE_CONFIG, coefficients=spec))
    code, report = _run(capsys, ["solve", "--config", str(config), "--out", str(tmp_path / "s")])
    assert code == 0 and report["converged"] is True, report
    config = _write_config(
        tmp_path, "l2_unit.json", dict(SMALL_EXPERIMENT, coefficients=dict(spec, delta=1))
    )
    code, report = _run(capsys, ["l2", "--config", str(config), "--out", str(tmp_path / "l2_unit")])
    assert code == 1
    assert report["failures"] == [
        "checkerboard epsilon 0.0 not admissible for delta=1.0; maximal admissible epsilon is 0.0"
    ]


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_oracle_is_no_subcommand(capsys):
    """The oracle is solve's path for constant coefficients, not a command:
    `halfheat oracle` fails as any unknown subcommand does."""
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--config", "c.json"])
    assert info.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


def test_readme_key_table_matches_the_commands(capsys):
    """README's top-level-keys table has one row per CLI subcommand, each
    listing exactly the keys that command reads."""
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1).split(",")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | top-level keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        command, keys = line.strip("|").split("|")
        rows[command.strip().strip("`")] = sorted(re.findall(r"`(\w+)`", keys))
    assert sorted(rows) == sorted(commands)
    for command, keys in rows.items():
        assert keys == sorted(_CONFIG_KEYS[command.replace("-", "_")]), command


def test_module_entry_point(tmp_path):
    config = tmp_path / "id.json"
    config.write_text(json.dumps(SMALL_IDENTITIES))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "halfheat",
            "identities",
            "--config",
            str(config),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["passed"] is True
    assert (tmp_path / "out" / "summary.json").exists()


def test_solve_runs_with_scipy_blocked(tmp_path):
    """The runtime is numpy only: with every scipy import made to fail, a
    smooth-coefficient solve, which runs physical-frame GMRES, exits 0 and
    writes its field."""
    smooth = {"kind": "smooth", "delta": 0.5, "seed": 3}
    config = _write_config(tmp_path, "smooth.json", dict(SOLVE_CONFIG, coefficients=smooth))
    out = tmp_path / "out"
    argv = ["solve", "--config", str(config), "--out", str(out)]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from halfheat import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    src = str(Path(experiments.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["method"] == "gmres"
    assert (out / "u.htpf").is_file()


def test_partial_grid_override_keeps_the_command_default(tmp_path, capsys):
    """--grid n_t=8192 merges onto tail-decay's own grid (l_t = 512), not onto
    a generic 64x64 cell on which the command cannot run."""
    out = tmp_path / "tail"
    code, report = _run(
        capsys, ["tail-decay", "--grid", "n_t=8192", "--out", str(out)]
    )
    assert code == 0, report["failures"]
    payload = json.loads((out / "summary.json").read_text())
    assert payload["passed"] is True


def test_partial_solve_grid_fills_from_the_default(tmp_path, capsys):
    """solve takes missing grid keys from the 64x64 default grid."""
    for index, grid in enumerate(({"d": 1}, {"n_t": 32})):
        config = _write_config(tmp_path, f"{index}.json", dict(SOLVE_CONFIG, grid=grid))
        out = tmp_path / str(index)
        code, report = _run(capsys, ["solve", "--config", str(config), "--out", str(out)])
        assert code == 0, report
        u = read_field(out / "u.htpf")
        assert (u.grid.n_t, u.grid.n_x, u.grid.l_t) == (grid.get("n_t", 64), (64,), 2.0)


@pytest.mark.parametrize("grid", [[64, 64], "64x64", 64])
def test_non_object_grid_fails_cleanly(tmp_path, capsys, grid):
    experiment = _write_config(tmp_path, "id.json", dict(SMALL_IDENTITIES, grid=grid))
    problem = _write_config(tmp_path, "solve.json", dict(SOLVE_CONFIG, grid=grid))
    for argv in (
        ["identities", "--config", str(experiment), "--out", str(tmp_path / "o")],
        ["identities", "--config", str(experiment), "--grid", "n_t=32"],
        ["solve", "--config", str(problem), "--out", str(tmp_path / "s")],
    ):
        code, report = _run(capsys, argv)
        assert code == 1
        assert report["failures"] == [f"'grid' must be an object, got {grid!r}"]


def test_unknown_config_grid_key_fails_cleanly(tmp_path, capsys):
    """A misspelt grid key is an error, as it is for --grid, not a silent
    fallback to the default value."""
    config = _write_config(tmp_path, "id.json", dict(SMALL_IDENTITIES, grid={"nt": 32}))
    code, report = _run(capsys, ["identities", "--config", str(config)])
    assert code == 1
    assert "unknown grid key 'nt'" in report["failures"][0]


@pytest.mark.parametrize(
    "solver, message",
    [
        ({"bogus": 1}, "unknown solver key 'bogus'"),
        ({"rtol": 1e-9, "restarts": 4}, "unknown solver key 'restarts'"),
        ([1e-9], "'solver' must be an object"),
        ({"rtol": "tight"}, "malformed solver section"),
        ({"kappa": 1}, "unknown solver key 'kappa'"),
        ({"preconditioner": "constant_mean"}, "unknown solver key 'preconditioner'"),
    ],
)
def test_bad_solver_section_fails_cleanly(tmp_path, capsys, solver, message):
    experiment = _write_config(tmp_path, "l2.json", dict(SMALL_EXPERIMENT, solver=solver))
    problem = _write_config(tmp_path, "solve.json", dict(SOLVE_CONFIG, solver=solver))
    for argv in (
        ["l2", "--config", str(experiment), "--out", str(tmp_path / "o")],
        ["solve", "--config", str(problem), "--out", str(tmp_path / "s")],
    ):
        code, report = _run(capsys, argv)
        assert code == 1
        assert len(report["failures"]) == 1
        assert message in report["failures"][0]


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("solve", {"coefficients": [1]}, "'coefficients' must be an object, got [1]"),
        ("solve", {"coefficients": {"delta": None}}, "'delta' must be a number, got None"),
        ("solve", {"coefficients": {"seed": [3]}}, "'seed' must be a number, got [3]"),
        ("solve", {"lambda": "big"}, "'lambda' must be a number, got 'big'"),
        ("solve", {"data": ["cos(t)"]}, "'data' must be an object"),
        ("solve", {"data": {"h": 3}}, "expression must be a string, got 3"),
        ("solve", {"data": {"g": 3}}, "data.g must be a list of expressions, got 3"),
        ("l2", {"trials": None}, "'trials' must be a number, got None"),
        ("l2", {"seed": {}}, "'seed' must be a number, got {}"),
        ("l2", {"coefficients": [1]}, "'coefficients' must be an object, got [1]"),
        ("l2", {"coefficients": {"delta": "half"}}, "'delta' must be a number, got 'half'"),
        ("lp-sweep", {"lambdas": 3}, "'lambdas' must be a list of numbers, got 3"),
        ("lp-sweep", {"lambdas": [1.0, None]}, "'lambdas[1]' must be a number, got None"),
        ("lp-sweep", {"p_list": "2,3"}, "'p_list' must be a list of numbers, got '2,3'"),
        ("lp-sweep", {"coefficients": {"kinds": 3}}, "'kinds' must be a list of kind names"),
        ("tail-decay", {"coefficients": {"k_max": 2}}, "k_max must be >= 3"),
        ("solve", {"out": 3}, "'out' must be a directory path string, got 3"),
        ("l2", {"out": ["o"]}, "'out' must be a directory path string, got ['o']"),
        # integer keys holding a bool or a fractional number used to be
        # truncated silently (trials 2.5 ran 2 trials)
        ("l2", {"trials": 2.5}, "'trials' must be an integer, got 2.5"),
        ("l2", {"seed": 1.9}, "'seed' must be an integer, got 1.9"),
        ("l2", {"trials": True}, "'trials' must be an integer, got True"),
        ("l2", {"grid": {"n_t": 64.5}}, "'n_t' must be an integer, got 64.5"),
        ("l2", {"solver": {"restart": 4.5}}, "'restart' must be an integer, got 4.5"),
        ("tail-decay", {"coefficients": {"k_max": 4.5}}, "'k_max' must be an integer, got 4.5"),
        ("solve", {"coefficients": {"seed": 1.5}}, "'seed' must be an integer, got 1.5"),
        (
            "solve",
            {"coefficients": {"kind": "x1_piecewise", "n_jumps": 2.5}},
            "'n_jumps' must be an integer, got 2.5",
        ),
        ("solve", {"coefficients": {"file": 3}}, "'file' must be a sidecar path string, got 3"),
        ("solve", {"lambda": float("nan")}, "lambda must be finite and >= 0, got nan"),
        # an empty p list would give tail-decay no rows to fail on; l2 and
        # oscillation run at one lambda, so a second one would be ignored
        ("tail-decay", {"p_list": []}, "p list must not be empty"),
        ("l2", {"lambdas": [1.0, 4.0]}, "'lambdas' must hold one lambda > 0 for l2"),
        (
            "oscillation",
            {"lambdas": [1.0, 4.0]},
            "'lambdas' must hold one lambda > 0 for oscillation, got [1.0, 4.0]",
        ),
        # both used to end in an OverflowError traceback (2.0 ** (k_max + 3),
        # lambda**2 in the single-mode check)
        ("tail-decay", {"coefficients": {"k_max": 1e6}}, "grid too short for 'k_max' 1000000"),
        ("l2", {"lambdas": [1e308]}, "'lambdas' entries must be finite and >= 0, at most 1e+75"),
        # a NaN amplitude used to fail later, as "coefficient entries must be finite"
        (
            "solve",
            {"coefficients": {"kind": "smooth", "delta": 0.5, "epsilon": float("nan")}},
            "smooth amplitude nan not admissible for delta=0.5",
        ),
        (
            "l2",
            {"coefficients": {"kind": "smooth", "delta": 0.5, "epsilon": float("nan")}},
            "smooth amplitude nan not admissible for delta=0.5",
        ),
    ],
    ids=[
        "solve_coefficients_list", "solve_delta_null", "solve_seed_list",
        "solve_lambda_text", "solve_data_list", "solve_h_number", "solve_g_number",
        "l2_trials_null", "l2_seed_object", "l2_coefficients_list", "l2_delta_text",
        "lp_sweep_lambdas_number", "lp_sweep_lambda_null", "lp_sweep_p_list_text",
        "lp_sweep_kinds_number", "tail_decay_k_max_2", "solve_out_number", "l2_out_list",
        "l2_trials_fraction", "l2_seed_fraction", "l2_trials_bool", "l2_n_t_fraction",
        "l2_restart_fraction", "tail_decay_k_max_fraction", "solve_seed_fraction",
        "solve_n_jumps_fraction", "solve_file_number", "solve_lambda_nan",
        "tail_decay_p_list_empty", "l2_lambdas_list", "oscillation_lambdas_list",
        "tail_decay_k_max_huge", "l2_lambda_huge", "solve_smooth_epsilon_nan",
        "l2_smooth_epsilon_nan",
    ],
)
def test_malformed_config_values_fail_cleanly(tmp_path, capsys, command, edit, message):
    """A config value of the wrong type is a one-line JSON failure naming the
    key, never a traceback."""
    base = SOLVE_CONFIG if command == "solve" else SMALL_EXPERIMENT
    config = _write_config(tmp_path, "c.json", {"out": str(tmp_path / "o"), **base, **edit})
    code, report = _run(capsys, [command, "--config", str(config)])
    assert code == 1
    assert len(report["failures"]) == 1
    assert message in report["failures"][0]


def test_deeply_nested_expression_fails_cleanly(tmp_path, capsys):
    # too deep for the parser: it raises RecursionError on the first and
    # MemoryError on the second (10 KB)
    for deep in ("-" * 5000 + "1", "-" * 10000 + "1"):
        config = _write_config(
            tmp_path, "solve.json", dict(SOLVE_CONFIG, data={"h": deep, "g": ["0"]})
        )
        argv = ["solve", "--config", str(config), "--out", str(tmp_path / "o")]
        code, report = _run(capsys, argv)
        assert code == 1
        assert report["failures"] == ["expression is nested too deeply"]


def test_solve_on_x1_coefficients_takes_the_exact_path(tmp_path, capsys):
    """x1_piecewise coefficients are solved directly: no GMRES iteration and a
    residual at rounding level, recomputed from the operator."""
    mapping = dict(
        SOLVE_CONFIG,
        coefficients={"kind": "x1_piecewise", "delta": 0.5, "seed": 3},
    )
    config = _write_config(tmp_path, "solve.json", mapping)
    code, report = _run(capsys, ["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0
    disk = json.loads((tmp_path / "o" / "result.json").read_text())
    assert disk["iterations"] == 0
    assert disk["method"] == report["method"] == "x1_direct"
    assert disk["converged"] is True
    assert disk["final_relative_residual"] <= 1e-12
    assert report["iterations"] == 0


def test_solve_on_time_coefficients_takes_the_frame_path(tmp_path, capsys):
    """time_piecewise coefficients on the default 64x64 grid are solved by
    GMRES in the (t, xi) frame, whose residual history ends at the physical
    residual it reports."""
    mapping = dict(
        SOLVE_CONFIG,
        grid={"d": 1},
        coefficients={"kind": "time_piecewise", "delta": 0.5, "seed": 3},
    )
    config = _write_config(tmp_path, "solve.json", mapping)
    code, report = _run(capsys, ["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0
    assert read_field(tmp_path / "o" / "u.htpf").grid.shape == (64, 64)
    disk = json.loads((tmp_path / "o" / "result.json").read_text())
    assert disk["iterations"] == report["iterations"] > 0
    assert disk["method"] == report["method"] == "t_frame_gmres"
    assert disk["converged"] is True
    assert disk["final_relative_residual"] <= 1e-9
    assert len(disk["residual_history"]) == disk["iterations"]
    assert disk["residual_history"][-1] == pytest.approx(disk["final_relative_residual"], rel=1e-3)


_COMMANDS = ("identities", "l2", "lp-sweep", "tail-decay", "oscillation", "assumptions")


@pytest.mark.parametrize(
    "command, edit, key",
    [(command, {"trails": 20}, "config key 'trails'") for command in _COMMANDS]
    + [
        (
            command,
            {"coefficients": {"detla": 0.5}},
            # identities has no coefficients section
            "config key 'coefficients'" if command == "identities" else "coefficients key 'detla'",
        )
        for command in _COMMANDS
    ]
    + [(command, {"data": {"hh": "0"}}, "config key 'data'") for command in _COMMANDS]
    + [
        ("identities", {"coefficients": {"delta": 0.5}}, "config key 'coefficients'"),
        ("l2", {"coefficients": {"roughness_scale": 0.3}}, "coefficients key 'roughness_scale'"),
        ("l2", {"coefficients": {"file": "a.json"}}, "coefficients key 'file'"),
        ("lp-sweep", {"coefficients": {"file": "a.json"}}, "coefficients key 'file'"),
        ("tail-decay", {"coefficients": {"delta": 0.5}}, "coefficients key 'delta'"),
        ("oscillation", {"coefficients": {"kind": "smooth"}}, "coefficients key 'kind'"),
        ("assumptions", {"coefficients": {"seed": 3}}, "coefficients key 'seed'"),
    ]
    + [
        ("solve", edit, key)
        for edit, key in (
            ({"lamda": 1.0}, "config key 'lamda'"),
            ({"seed": 1}, "config key 'seed'"),
            ({"coefficients": {"sead": 3}}, "coefficients key 'sead'"),
            ({"coefficients": {"roughness_scale": 0.3}}, "coefficients key 'roughness_scale'"),
            ({"data": {"hh": "0"}}, "data key 'hh'"),
            # five keys of other sections, which keep the ids of the cases below
            ({"grid": {"nt": 16}}, "grid key 'nt'"),
            ({"solver": {"tol": 1e-6}}, "solver key 'tol'"),
            ({"coefficients": {"kinds": ["smooth"]}}, "coefficients key 'kinds'"),
            ({"coefficients": {"r_zero": 0.5}}, "coefficients key 'r_zero'"),
            ({"data": {"g1": "0"}}, "data key 'g1'"),
        )
    ]
    # top-level keys each of these commands used to accept and never read
    + [
        (command, {key: value}, f"config key '{key}'")
        for command, key, value in (
            ("identities", "lambdas", [1.0]),
            ("identities", "p_list", [2.0]),
            ("identities", "solver", {"rtol": 1e-6}),
            ("l2", "p_list", [2.0]),
            ("tail-decay", "lambdas", [1.0]),
            ("tail-decay", "trials", 2),
            ("tail-decay", "solver", {}),
            ("oscillation", "trials", 2),
            ("oscillation", "p_list", [2.0]),
            ("assumptions", "lambdas", [1.0]),
            ("assumptions", "p_list", [2.0]),
            ("assumptions", "trials", 2),
            ("assumptions", "solver", {}),
        )
    ],
)
def test_unknown_keys_fail_naming_the_key(tmp_path, capsys, command, edit, key):
    """A key the command does not read, at the top level or in 'coefficients'
    or 'data', is a one-line JSON failure naming it, not a silent default."""
    base = SOLVE_CONFIG if command == "solve" else SMALL_EXPERIMENT
    mapping = {**base, **edit}
    for section in ("coefficients", "data"):
        if section in base and section in edit:
            mapping[section] = {**base[section], **edit[section]}
    config = _write_config(tmp_path, "c.json", mapping)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    report = json.loads(lines[0])
    assert len(report["failures"]) == 1
    assert report["failures"][0].startswith(f"unknown {key}")
    assert not (tmp_path / "o").exists()


_ANY_TOP_LEVEL_KEY = sorted({key for keys in _CONFIG_KEYS.values() for key in keys})
# a valid value of each top-level key, on grids small enough to run every command
_GRIDS = {"tail_decay": {}, "oscillation": {"n_t": 128, "n_x": 64}}
_VALID = {
    "coefficients": {},
    "lambdas": [1.0],
    "p_list": [2.0],
    "trials": 1,
    "solver": {},
    "seed": 1,
    "data": {"h": "cos(t)"},
    "lambda": 1.0,
}


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind in _CONFIG_KEYS for key in _ANY_TOP_LEVEL_KEY],
    ids=[f"{kind}-{key}" for kind in _CONFIG_KEYS for key in _ANY_TOP_LEVEL_KEY],
)
def test_each_command_accepts_exactly_its_top_level_keys(tmp_path, capsys, kind, key):
    """A top-level key in the command's row of the key table is accepted; any
    other is a one-line JSON failure naming it, with exit 1, before any work."""
    command = kind.replace("_", "-")
    keys = _CONFIG_KEYS[kind]
    if kind == "solve":
        mapping = dict(SOLVE_CONFIG)
    else:
        mapping = {"grid": _GRIDS.get(kind, {"n_t": 16, "n_x": 16})}
        if "trials" in keys:
            mapping["trials"] = 1
    out = tmp_path / "o"
    value = {"experiment": kind, "grid": mapping["grid"], "out": str(out)}.get(key, _VALID.get(key))
    config = _write_config(tmp_path, "c.json", {**mapping, key: value})
    argv = [command, "--config", str(config)] + ([] if key == "out" else ["--out", str(out)])
    code, report = _run(capsys, argv)
    if key in keys:
        assert code == 0, report
        assert out.exists()
    else:
        assert code == 1
        assert len(report["failures"]) == 1
        assert report["failures"][0].startswith(f"unknown config key {key!r}")
        assert not out.exists()


@pytest.mark.parametrize(
    "coefficients, message",
    [
        ({"kappas": []}, "'kappas' must hold at least one kappa, got []"),
        ({"kappas": ["nan"]}, "'kappas' entries must be finite and >= 4, got nan"),
        ({"kappas": [4.0, 2.0]}, "'kappas' entries must be finite and >= 4, got 2.0"),
        ({"kappas": [4.0, float("inf")]}, "'kappas' entries must be finite and >= 4, got inf"),
        ({"outer_radius": 100}, "'outer_radius' 100.0 with 'kappas' [4.0, 8.0, 16.0]"),
        ({"outer_radius": -1}, "'outer_radius' -1.0 with 'kappas' [4.0, 8.0, 16.0]"),
        # (r/kappa)^2 underflows to 0, so Q_{r/kappa} holds no sample
        ({"kappas": [4.0, 1e200]}, "'outer_radius' 1.0 with 'kappas' [4.0, 1e+200]"),
    ],
    ids=["kappas_empty", "kappa_nan", "kappa_small", "kappa_inf", "radius_large",
         "radius_negative", "inner_cylinder_empty"],
)
def test_oscillation_rejects_kappas_and_radius_before_solving(
    tmp_path, capsys, monkeypatch, coefficients, message
):
    """Each of these used to run all three case solves, then fail on a fitted
    decay of None."""

    def no_solve(*args):
        raise AssertionError("solved before the kappas and the radius were checked")

    monkeypatch.setattr(experiments, "solve", no_solve)
    mapping = {"grid": _GRIDS["oscillation"], "coefficients": coefficients}
    config = _write_config(tmp_path, "c.json", mapping)
    code, report = _run(capsys, ["oscillation", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert len(report["failures"]) == 1
    assert report["failures"][0].startswith(message)


def test_oscillation_with_a_huge_outer_radius_fails_as_one_json_line(tmp_path, capsys):
    """r = 1e200 used to end in an OverflowError from squaring it."""
    config = _write_config(tmp_path, "c.json", {"coefficients": {"outer_radius": 1e200}})
    argv = ["oscillation", "--config", str(config), "--out", str(tmp_path / "o")]
    code = main(argv + ["--grid", "n_t=64", "--grid", "n_x=32"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1
    (failure,) = json.loads(out[0])["failures"]
    assert failure.startswith("'outer_radius' 1e+200 with 'kappas' [4.0, 8.0, 16.0]")
    assert "does not fit the fundamental cell" in failure


def test_experiment_key_must_match_the_command(tmp_path, capsys):
    """`halfheat l2` on a config that says identities used to run l2 on the
    identities grid and hash a config naming identities."""
    config = _write_config(tmp_path, "c.json", dict(SMALL_EXPERIMENT, experiment="identities"))
    code, report = _run(capsys, ["l2", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert report["failures"] == [
        "config 'experiment' 'identities' does not match the command 'l2'"
    ]
    config = _write_config(tmp_path, "c.json", dict(SMALL_IDENTITIES, experiment="identities"))
    argv = ["identities", "--config", str(config), "--out", str(tmp_path / "i")]
    code, report = _run(capsys, argv)
    assert code == 0, report


def test_empty_sweep_kinds_fail(tmp_path, capsys):
    """An empty kinds list used to sweep the default kind."""
    config = _write_config(
        tmp_path, "c.json", dict(SMALL_EXPERIMENT, coefficients={"kinds": []}, trials=1)
    )
    code, report = _run(capsys, ["lp-sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert report["failures"] == ["'kinds' must name at least one kind, got []"]


@pytest.mark.parametrize("command", ["solve"])
def test_solve_seed_flag_fails(tmp_path, capsys, command):
    """solve used to accept --seed and ignore it."""
    config = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
    argv = [command, "--config", str(config), "--seed", "2", "--out", str(tmp_path / "o")]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["failures"] == [
        f"{command} takes no --seed; the config's coefficients.seed sets the seed"
    ]
    assert not (tmp_path / "o").exists()


def test_sweep_kind_beside_kinds_fails(tmp_path, capsys):
    """A 'kind' beside 'kinds' used to be dropped: the sweep ran 'kinds' only."""
    spec = {"kinds": ["x1_piecewise"], "kind": "checkerboard"}
    config = _write_config(tmp_path, "c.json", dict(SMALL_EXPERIMENT, coefficients=spec, trials=1))
    argv = ["lp-sweep", "--config", str(config), "--out", str(tmp_path / "o")]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["failures"] == [
        "coefficients key 'kind' does not apply beside 'kinds'"
    ]


@pytest.mark.parametrize("command", ["solve"])
@pytest.mark.parametrize(
    "key, value",
    [("kind", "smooth"), ("delta", 0.5), ("seed", 3), ("n_jumps", 4), ("epsilon", 0.3),
     ("cell_size", 0.5)],
)
def test_file_spec_takes_no_generator_key(tmp_path, capsys, command, key, value):
    """A key beside 'file' used to be ignored: the stack was loaded as is."""
    grid = make_grid(**SOLVE_CONFIG["grid"])
    sidecar = write_coefficients(
        tmp_path / "a", generate_coefficients(kind="constant", delta=0.5, seed=4, grid=grid)
    )
    mapping = dict(SOLVE_CONFIG, coefficients={"file": str(sidecar)})
    config = _write_config(tmp_path, "file.json", mapping)
    code, _ = _run(capsys, [command, "--config", str(config), "--out", str(tmp_path / "ok")])
    assert code == 0
    mapping["coefficients"][key] = value
    config = _write_config(tmp_path, "extra.json", mapping)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["failures"] == [
        f"coefficients key {key!r} does not apply beside 'file'"
    ]
    assert not (tmp_path / "o").exists()


def test_huge_period_fails_cleanly(tmp_path, capsys):
    """A period whose products with sample counts overflow used to reach the
    generators, where the checkerboard parity turned to NaN."""
    argv = ["identities", "--grid", "l_t=1e308", "--out", str(tmp_path / "o")]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    failure = json.loads(lines[0])["failures"][0]
    assert failure.startswith("l_t must be a positive finite period")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the input overflows
@pytest.mark.parametrize(
    "kind, method",
    [("constant", "oracle"), ("time_piecewise", "t_frame_gmres"), ("x1_piecewise", "gmres")],
)
def test_solve_at_a_tiny_lambda_fails_naming_lambda(tmp_path, capsys, kind, method):
    """f = 1 puts 1/lambda in u, which overflows at lambda = 5e-324; the
    failure used to say only 'field entries must be finite'."""
    mapping = dict(SOLVE_CONFIG, coefficients={"kind": kind, "delta": 0.5, "seed": 3})
    mapping.update(data={"f": "1"}, **{"lambda": 5e-324})
    config = _write_config(tmp_path, "c.json", mapping)
    code = main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["failures"] == [
        f"{method} solve at lambda = 5e-324 overflowed: u is not finite"
    ]


def test_solve_on_data_whose_norm_overflows(tmp_path, capsys):
    """Finite data of size 1e300 have an infinite 2-norm.  solve used to
    refuse them; it now solves them divided by their peak's power of two,
    2^997, and multiplies u back, so u.htpf holds 2^997 times the solution
    for the data 1e300 / 2^997, to the bit."""
    mapping = dict(SOLVE_CONFIG, coefficients={"kind": "x1_piecewise", "delta": 0.5, "seed": 3})
    solutions = {}
    for name, f in (("huge", 1e300), ("scaled", math.ldexp(1e300, -997))):
        config = _write_config(tmp_path, f"{name}.json", dict(mapping, data={"f": repr(f)}))
        argv = ["solve", "--config", str(config), "--out", str(tmp_path / name)]
        code, report = _run(capsys, argv)
        assert code == 0 and report["converged"] and report["method"] == "x1_direct"
        solutions[name] = read_field(tmp_path / name / "u.htpf").data
    assert solutions["huge"].tobytes() == np.ldexp(solutions["scaled"], 997).tobytes()
