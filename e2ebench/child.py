"""One fresh process of an in-process workload (started by ``run.py``).

Usage::

    python3 e2ebench/child.py WORKLOAD SEEDS SECONDS TRACE SPAWNED

``SEEDS`` is a comma-separated list of pool seeds, ``SPAWNED`` the
``time.monotonic()`` reading of the parent just before it started this
process.  Set-up ends once the workload could issue its first operation.
Untraced, the process runs every seed once and then cycles through them
until ``SECONDS`` are spent; traced, it runs each seed untraced and then
traced.  It prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def _run(rep, seed):
    try:
        return rep(seed)
    except Exception:  # a failed operation is counted, not fatal
        return {"seed": seed, "error": traceback.format_exc(limit=4)}


def main(argv) -> int:
    workload, seeds, seconds, traced, spawned = argv
    seeds = [int(seed) for seed in seeds.split(",")]
    seconds, traced, spawned = float(seconds), traced == "1", float(spawned)

    workloads.prepare(workload)
    setup_s = time.monotonic() - spawned
    rep = workloads.REPS[workload]
    output = {"setup_s": setup_s, "reps": [], "leftover_wrappers": []}

    def untraced(seed):
        output["leftover_wrappers"].extend(spans.installed())
        output["reps"].append(_run(rep, seed))

    if not traced:
        deadline = time.perf_counter() + seconds
        for seed in seeds:
            untraced(seed)
        index = 0
        # Start another rep while at least half of one still fits.
        while time.perf_counter() + 0.5 * output["reps"][-1].get("wall_s", 0.0) < deadline:
            untraced(seeds[index % len(seeds)])
            index += 1
    else:
        output["traced"] = []
        for seed in seeds:
            untraced(seed)
            tracer = spans.Tracer()
            patches = spans.install(tracer)
            try:
                result = _run(rep, seed)
            finally:
                spans.uninstall(patches)
            result["trace"] = tracer.to_dict()
            output["traced"].append(result)
    output["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
