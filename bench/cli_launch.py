"""Run the thetaflow command line from the source tree.

    python3 bench/cli_launch.py heat --init f.csv --t 0.1 --out u.csv

The package has no ``__main__`` module and the ``thetaflow`` script may
not be installed, so this calls ``thetaflow.cli.entrypoint()`` directly.
When BENCH_TRACE_FILE is set, the calls into the library are traced and
their spans are written to that file as a JSON list on exit; with
BENCH_TRACE_ALLOC=1 the spans also carry tracemalloc peaks.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import thetaflow.cli  # noqa: E402


def main() -> None:
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    if not trace_file:
        thetaflow.cli.entrypoint()
        return
    from tracing import Tracer

    tracer = Tracer(alloc=os.environ.get("BENCH_TRACE_ALLOC") == "1")
    try:
        with tracer.active(request_id=None):
            thetaflow.cli.entrypoint()
    finally:
        with open(trace_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    main()
