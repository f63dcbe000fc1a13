"""Every workload with tracing off and on, side by side.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload NAME ...]

For each workload this makes one untraced and one traced run with the same
seed and prints every end-to-end metric by name and unit, the traced value
beside it and the difference (the tracing overhead plus run-to-run noise,
so repeat it with other seeds before reading a small difference), then the
traced run's per-layer metrics. Exits 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness  # noqa: E402
from perfbench.run import fmt  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    ok = True
    for name in args.workload or list(WORKLOADS):
        spec = WORKLOADS[name]
        runs = []
        for trace in (False, True):
            parent = os.path.join(ROOT, ".perfbench-tmp")
            runs.append(harness.run_workload(spec, args.seed, args.seconds, trace, parent))
        plain, traced = runs
        ok &= plain.correct and traced.correct
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s) "
              f"correct={plain.correct}/{traced.correct}")
        print(f"  {'metric':<26} {'untraced':>12} {'traced':>12} {'change':>9}  unit  n")
        for metric, (value, unit, n) in plain.e2e.items():
            other = traced.e2e.get(metric, (None, unit, 0))[0]
            diff = ""
            if value and other is not None:
                diff = f"{(other - value) / value:+.1%}"
            print(f"  {metric:<26} {fmt(value):>12} {fmt(other):>12} {diff:>9}  {unit:<5} {n}")
        print("  per-layer (traced)")
        for metric, (value, unit) in traced.layers.items():
            print(f"    {metric:<44} {fmt(value):>12} {unit}")
        for result in runs:
            for reason, count in result.failures.most_common(10):
                print(f"  failed x{count}: {reason}")
            for problem in result.problems:
                print(f"  problem: {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
