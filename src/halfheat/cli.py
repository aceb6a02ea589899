"""Command-line front end: argument parsing, the --grid, --seed and --out
overrides, and the one-line JSON report.  experiments.py reads every config
section.

Experiment subcommands (identities, l2, lp-sweep, tail-decay, oscillation,
assumptions) run one harness experiment and write trials.csv + summary.json;
solve runs a single problem described by a JSON config, by the path its
coefficient tag picks, and writes the solution as HTPF plus a result.json.
Exit code 0 means every assertion passed; on failure the process prints a
machine-readable JSON failure list and exits 1.  Output bytes for experiments
depend only on (config, seed); wall times appear only in solve results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, ExperimentConfig, _solve_problem, write_outputs
from .htpf import _write_json, write_field
from .solver import compute_bundles, solve

_EXPERIMENT_COMMANDS = tuple(kind.replace("_", "-") for kind in EXPERIMENTS)


def _apply_grid_overrides(mapping: dict, pairs: list[str]) -> None:
    """Merge --grid KEY=VALUE pairs into the config's grid object as text; n_x
    and l_x take comma-separated per-axis lists.  The grid reader checks the
    keys and reads the values."""
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--grid expects KEY=VALUE, got {pair!r}")
        parts = [v for v in value.split(",") if v]
        overrides[key.strip()] = parts[0] if len(parts) == 1 else parts
    grid = mapping.get("grid")
    # a grid that is not an object stays as it is, for _grid_from_spec to reject
    if grid is None or isinstance(grid, dict):
        mapping["grid"] = {**(grid or {}), **overrides}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config not found: {path}")
    try:
        mapping = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return mapping


def _out_dir(args: argparse.Namespace, mapping: dict, command: str) -> Path:
    """--out, else the config's 'out' string, else halfheat_<command>."""
    if args.out:
        return Path(args.out)
    out = mapping.get("out", f"halfheat_{command}")
    if not isinstance(out, str):
        raise ValueError(f"'out' must be a directory path string, got {out!r}")
    return Path(out)


def _fail(name: str, failures: list[str]) -> int:
    print(json.dumps({"command": name, "passed": False, "failures": failures}))
    return 1


def _run_experiment(name: str, args: argparse.Namespace) -> int:
    key = name.replace("-", "_")
    try:
        mapping = _load_config(args.config)
        if args.seed is not None:
            mapping["seed"] = args.seed
        if args.grid:
            _apply_grid_overrides(mapping, args.grid)
        config = ExperimentConfig.from_mapping(mapping, kind=key)
        out_dir = _out_dir(args, mapping, key)
        result = EXPERIMENTS[key](config)
        csv_path, summary_path = write_outputs(result, out_dir)
    except (OSError, ValueError) as exc:
        return _fail(key, [str(exc)])
    print(
        json.dumps(
            {
                "command": key,
                "passed": result.passed,
                "failures": result.failures,
                "outputs": {"trials": str(csv_path), "summary": str(summary_path)},
            }
        )
    )
    return 0 if result.passed else 1


def _run_solve(args: argparse.Namespace) -> int:
    try:
        if args.config is None:
            raise ValueError("solve: need --config PATH")
        mapping = _load_config(args.config)
        if args.seed is not None:
            raise ValueError(
                "solve takes no --seed; the config's coefficients.seed sets the seed"
            )
        if args.grid:
            _apply_grid_overrides(mapping, args.grid)
        coeffs, data, options = _solve_problem(mapping)
        out_dir = _out_dir(args, mapping, "solve")
        result = solve(coeffs, data, options)
        norms = compute_bundles(result, data, (2.0,))
        out_dir.mkdir(parents=True, exist_ok=True)
        solution_path = out_dir / "u.htpf"
        write_field(solution_path, result.u)
        norm_f = norms["F"][2.0]
        payload = {
            "command": "solve",
            "converged": result.converged,
            "iterations": result.iterations,
            "final_relative_residual": result.final_relative_residual,
            "method": result.method,
            "residual_history": list(result.residual_history),
            "matvecs": result.matvecs,
            "wall_time": result.wall_time,
            "lambda": data.lam,
            "norms": {
                "U_2": norms["U"][2.0],
                "F_2": norm_f,
                "ratio": norms["U"][2.0] / norm_f if norm_f > 0 else None,
            },
            "outputs": {"solution": str(solution_path)},
        }
        _write_json(out_dir / "result.json", payload)
    except (OSError, ValueError) as exc:
        return _fail("solve", [str(exc)])
    print(json.dumps(payload))
    return 0 if result.converged else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="halfheat",
        description="Space-time operator experiments: identities, estimate "
        "trials, decay regressions, assumption scans, and single solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENT_COMMANDS + ("solve",):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file (see README schema)")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument(
            "--grid",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="grid override (d, n_t, n_x, l_t, l_x); repeatable",
        )
    args = parser.parse_args(argv)
    return _run_solve(args) if args.command == "solve" else _run_experiment(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
