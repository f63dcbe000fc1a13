"""Session-level benchmark of the punch-card server.

    python3 perfbench/run.py --workload main-checkout --seed 1 --seconds 10 --trace 0

Starts the real server (``punchcard server run`` in its own process), drives
it with closed-loop wallet sessions for --seconds, checks every reply, and
prints a table of every metric followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in E2E_METRICS; with
--trace 1 the layers are wrapped with timing spans on both sides and the
metrics are the per-layer ones in LAYER_METRICS. Run it from the root of
the repository; it builds nothing and writes only under .perfbench-tmp/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from perfbench import tracing  # noqa: E402

# end-to-end metrics of the result line: (name, unit). The table prints
# more (throughput, latency per session kind, failed_ratio); these are the
# ones steady enough across runs on a shared 2-vCPU VM to gate a change.
E2E_METRICS = [
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
    ("server_cpu_ms_per_op", "ms"),
]


# per-layer metrics of a traced run, then its own end-to-end figures, to
# set beside an untraced run's
LAYER_METRICS = tracing.layer_metric_names() + [
    ("trace." + name, unit) for name, unit in E2E_METRICS
    + [("ops_per_s", "1/s"), ("session_p50_ms", "ms")]
]


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(result, trace: bool) -> None:
    print("end-to-end" + (" (traced)" if trace else ""))
    for name, (value, unit, n) in result.e2e.items():
        print(f"  {name:<28} {fmt(value):>12} {unit:<6} n={n}")
    if trace:
        print("per-layer")
        for name, (value, unit) in result.layers.items():
            print(f"  {name:<44} {fmt(value):>12} {unit}")
    print("noise " + json.dumps(result.noise))
    for reason, count in result.failures.most_common(10):
        print(f"  failed x{count}: {reason}")
    for problem in result.problems:
        print(f"  problem: {problem}")


def result_line(result, trace: bool) -> dict:
    metrics = {}
    if trace:
        for name, unit in LAYER_METRICS:
            if name.startswith("trace.") and name[6:] in result.e2e:
                value = result.e2e[name[6:]][0]
            else:
                value = result.layers[name][0]
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in E2E_METRICS:
            metrics[name] = {"value": result.e2e[name][0], "unit": unit}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "punchcard")):
        print(f"run.py: no punchcard package under {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the server is still stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parent = os.path.join(ROOT, ".perfbench-tmp")
    print("machine " + json.dumps(harness.machine_record()))
    result = harness.run_workload(spec, args.seed, args.seconds, bool(args.trace), parent)
    print_table(result, bool(args.trace))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
