"""Session-level benchmark for the punch-card server.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of the repository; see
``run.py`` for the workloads and ``report.py`` for a side-by-side table of
every workload with tracing off and on.
"""
