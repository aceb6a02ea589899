"""One benchmark process: imports halfheat from the checkout, builds the
workload inputs, prints ``ready``, then (unless ``--mode setup``) runs
workload cycles and prints one JSON report as its last stdout line.

Modes: ``setup`` stops after ``ready``; ``plain`` runs cycles until the next
one would end past ``--seconds`` (at least one); ``traced`` runs one cycle
with spans recorded and writes them to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    started = perf_counter()
    import halfheat

    import_s = perf_counter() - started
    package = Path(halfheat.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        print(f"imported halfheat from {package}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import spans, workloads

    work_dir = f".perfbench_work/{args.workload}"
    ops = workloads.build_inputs(args.workload, args.seed, work_dir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    watch = spans.SolveWatch()
    tracer = spans.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
    cycles = []
    with spans.Patches() as patches, contextlib.redirect_stdout(sys.stderr):
        watch.install(patches)
        if args.mode == "traced":
            spans.install_tracing(tracer, patches)
        began = perf_counter()
        while True:
            cycles.append(workloads.run_cycle(ops, watch))
            elapsed = perf_counter() - began
            if args.mode == "traced" or elapsed * (1 + 1 / len(cycles)) > args.seconds:
                break

    report = {
        "import_s": import_s,
        "cycles": cycles,
        "peak_rss_mb": workloads.peak_rss_mb(),
        "env": workloads.library_environment(),
    }
    if args.mode == "traced":
        report["layers"] = spans.layer_metrics(
            tracer.spans, watch.results, import_s, cycles[0]["wall_s"]
        )
        report["distributions"] = spans.distributions(tracer.spans)
        tracer.write_jsonl(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
