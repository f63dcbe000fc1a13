"""Server process of the benchmark.

    python3 perfbench/launch_server.py --config server.conf [--spans out.json]

Runs ``punchcard server run`` through the CLI entry point. With --spans it
first installs the tracing wrappers and writes the recorded spans to that
file on SIGTERM. SIGTERM ends the process at once, without the shutdown
compaction, so stopping the server costs no disk work.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from punchcard import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracer.install("server")

    def on_term(signum, frame):
        code = 0
        if tracer is not None:
            try:
                tracer.dump(args.spans)
            except OSError as e:
                print(f"cannot write spans: {e}", file=sys.stderr)
                code = 1
        sys.stderr.flush()
        os._exit(code)

    signal.signal(signal.SIGTERM, on_term)
    return cli.main(["server", "run", "--config", args.config])


if __name__ == "__main__":
    sys.exit(main())
