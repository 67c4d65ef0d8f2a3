"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyst-read --seed 1 --seconds 30 --trace 0

Prints a human-readable summary, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is made
twice, untraced and traced, and the metrics are the per-layer ones plus
the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("curator-cli", "analyst-read", "usage-write-mix")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="mediacube benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def end_to_end(outcome) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "op_p50_ms": (statistics.median(outcome.latencies_ms), "ms"),
        "op_mean_ms": (statistics.fmean(outcome.latencies_ms), "ms"),
        "throughput_per_s": (outcome.throughput_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def overhead_pct(untraced, traced) -> float:
    """Extra time of the traced pass over the same leading calls, in percent."""
    n = min(len(untraced.work_ms), len(traced.work_ms))
    return (sum(traced.work_ms[:n]) / sum(untraced.work_ms[:n]) - 1.0) * 100.0


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import mediacube
    except ImportError as exc:
        print(f"cannot import mediacube from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(mediacube.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mediacube comes from {mediacube.__file__}, not this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        subprocess.run([sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(inputs)],
                       check=True, timeout=170)
        run = workloads.WORKLOADS[args.workload]

        def one_pass(name, tracer):
            plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
            (work / name).mkdir()
            return run(plan, work / name, inputs, args.seconds, tracer)

        outcomes = [one_pass("untraced", tracing.NullTracer())]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                outcomes.append(one_pass("traced", tracer))
            finally:
                tracer.uninstall()
            trace_file = HERE / ".work" / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.dump(trace_file)
            metrics = tracing.layer_metrics(tracer.spans, workloads.SOURCE_KINDS,
                                            outcomes[1].body_bytes)
            metrics["trace.overhead_pct"] = (overhead_pct(*outcomes), "%")
            busy = [layer for layer in workloads.BUSY_LAYERS[args.workload]
                    if metrics[f"layer_self_ms_per_request.{layer}"][0] <= 0]
            outcomes[1].check(not busy, f"traced run saw no time in layers {busy}")
        else:
            metrics = end_to_end(outcomes[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    outcomes[-1].check(sorted(names) == sorted(metrics),
                       f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"catalogs under {work} (Path.write_text, no fsync)")
    for i, outcome in enumerate(outcomes):
        label = "traced" if i else "untraced"
        print(f"[{label}] setup_s {statistics.median(outcome.setup_s):.4f} s "
              f"(n={len(outcome.setup_s)})  ops n={len(outcome.latencies_ms)}")
        for name, (value, unit, n) in outcome.named.items():
            print(f"[{label}] {name} {value:.4f} {unit} (n={n})")
        print(f"[{label}] failed_ops_ratio {outcome.failed / max(outcome.attempted, 1):.6f} "
              f"({outcome.failed}/{outcome.attempted})")
        for problem in outcome.problems:
            print(f"[{label}] FAILED {problem}")
    if args.trace:
        print(f"trace spans written to {trace_file}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
