"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Every timed process is a fresh interpreter started from here.

``--trace 0`` measures the end-to-end metrics: nine set-up-only processes
plus one measuring process whose own set-up is a tenth sample, and which runs
workload cycles for ``--seconds``.  ``--trace 1`` runs one untraced cycle and
then one traced cycle of the same inputs, each in a fresh process, and reports
the per-layer metrics and the tracing overhead.

Report lines name each metric with its unit; the last stdout line is the JSON
result.  Exits non-zero without a result when the package is missing or a
benchmark process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:1] = [str(ROOT)]

from perfbench import spans, stats  # noqa: E402

WORKLOADS = ("oscillation", "lp_sweep_d2", "desk")
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float,
          deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it printed ready, its report)."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode,
    ]
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker passed the {TIME_LIMIT_S:g} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def judge(reports: list[dict]) -> list[dict]:
    """All operation records of the invocation; a repeat of an operation whose
    outputs differ from its first run in this invocation fails."""
    first_digest: dict[tuple, str] = {}
    records = []
    for report in reports:
        for cycle in report["cycles"]:
            for op in cycle["ops"]:
                key = (op["label"], op["seed"])
                if op["digest"] is not None:
                    seen = first_digest.setdefault(key, op["digest"])
                    if seen != op["digest"]:
                        op["passed"] = False
                        op["reason"] = "outputs differ from an earlier run of the same seed"
                records.append(op)
    return records


def tally(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations."""
    return len(records), sum(not r["passed"] for r in records)


def workload_digest(report: dict) -> str:
    """sha256 over the output digests of the first cycle's operations."""
    h = hashlib.sha256()
    for op in report["cycles"][0]["ops"]:
        h.update(f"{op['label']}:{op['seed']}:{op['digest']}\n".encode())
    return h.hexdigest()


def machine_environment() -> dict:
    cpu_model = ""
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS_set": "OPENBLAS_NUM_THREADS" in os.environ,
        "HALFHEAT_THREADS_set": "HALFHEAT_THREADS" in os.environ,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "halfheat" / "__init__.py").is_file():
        print(f"no halfheat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    w, seed = args.workload, args.seed
    try:
        if args.trace:
            _, plain = spawn(w, seed, "plain", 0.0, deadline)
            _, traced = spawn(w, seed, "traced", 0.0, deadline)
            reports = [plain, traced]
        else:
            setup = [spawn(w, seed, "setup", 0.0, deadline)[0] for _ in range(SETUP_PROBES)]
            ready_s, plain = spawn(w, seed, "plain", args.seconds, deadline)
            setup.append(ready_s)
            reports = [plain]
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = judge(reports)
    attempted, failed = tally(records)
    print("env " + json.dumps({**machine_environment(), **plain["env"]}, sort_keys=True))
    cycles = plain["cycles"]
    print(f"workload {w} seed {seed}: {len(cycles)} untraced cycle(s), "
          f"{attempted} operations, {failed} failed")
    for r in records:
        if not r["passed"]:
            print(f"FAIL workload={w} seed={seed} op={r['label']} op_seed={r['seed']}: {r['reason']}")
    for report in reports:
        print(f"digest workload={w} seed={seed} {workload_digest(report)}")
    print(f"fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")

    if args.trace:
        for name, summary in sorted(traced["distributions"].items()):
            print(stats.format_summary(f"span {name}", summary, "s"))
        layers = {
            **traced["layers"],
            "trace.overhead_s": traced["cycles"][0]["wall_s"] - plain["cycles"][0]["wall_s"],
        }
        metrics = {name: layers[name] for name, _, _ in spans.PER_LAYER}
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        shown = metrics
    else:
        samples = {
            "setup_s": setup,
            "run_s": [c["wall_s"] for c in cycles],
            "cpu_s": [c["cpu_s"] for c in cycles],
        }
        units = dict(END_TO_END)
        for name, values in samples.items():
            print(stats.describe(name, values, units[name]))
        metrics = {name: stats.median(values) for name, values in samples.items()}
        shown = {"peak_rss_mb": plain["peak_rss_mb"], "success_rate": 1.0 - failed / attempted}
        metrics.update(shown)
    for name, value in shown.items():
        note = " (computed from array and file sizes)" if units[name] == "MB" and args.trace else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
