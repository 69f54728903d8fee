"""Record the best FoM of every in-process workload for every pool seed.

Usage (from the checkout root)::

    python3 e2ebench/record_golden.py [--workload NAME ...]

Writes ``e2ebench/golden.json``: for each workload, a map from pool seed to
the list of best FoMs one rep produces (one value, or one per campaign cell
for ``sweep_mixed``).  The served job is a ``rl_two_tia`` run, so it is
checked against the ``rl_two_tia`` entries.  Re-record only when a change is
meant to alter optimization results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

for _name in workloads.BLAS_THREAD_VARS:
    os.environ[_name] = "1"
sys.path.insert(0, str(workloads.SRC))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.REPS))
    args = parser.parse_args()
    golden = workloads.load_golden() if workloads.GOLDEN_PATH.exists() else {}
    for name in args.workload or sorted(workloads.REPS):
        workloads.prepare(name)
        entries = {}
        for seed in range(workloads.POOL_SIZE):
            rep = workloads.REPS[name](seed)
            entries[str(seed)] = rep["best"]
            print(name, seed, rep["best"], flush=True)
        golden[name] = entries
        with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
