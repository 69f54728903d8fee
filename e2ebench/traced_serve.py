"""``python -m repro.experiments serve`` with the benchmark's spans installed.

Usage::

    python3 e2ebench/traced_serve.py TRACE_JSON serve [serve options...]

Runs the ordinary CLI entry point in this process after wrapping every
layer's entry points, and writes the accumulated spans to ``TRACE_JSON``
when the server stops (SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def main(argv) -> int:
    from repro.experiments.__main__ import main as cli

    trace_path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        return cli(cli_args) or 0
    finally:
        spans.uninstall(patches)
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.to_dict()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
