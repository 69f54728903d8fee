"""Benchmark trajectory recording: merge results into ``BENCH_evaluator.json``.

Throughput benchmarks call :func:`record_backend` as they run; every call
merges one backend's numbers into a single JSON report (path from
``REPRO_BENCH_OUTPUT``, default ``BENCH_evaluator.json`` at the repository
root).  CI uploads the report as an artifact and gates it against the
committed baseline with ``check_bench_gate.py``, so the repository carries a
designs/sec trajectory across PRs.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import platform
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Optional

#: Report schema version (bump when the layout changes).
BENCH_SCHEMA = 1

#: Parallel-speedup gates fire only on machines where two processes finish
#: a CPU-bound burn at least this many times faster than one
#: (``machine.parallelism``); elsewhere the speedups are recorded, not gated.
PARALLELISM_GATE = 1.6

#: Loop length of the fixed pure-Python burn (~0.25 s on one core).
_BURN_ITERATIONS = 2_000_000

#: Paired one-process/two-process timings behind ``machine.parallelism``.
_PARALLELISM_ROUNDS = 3

#: The committed trajectory baseline CI gates against.  Never written by
#: default — refreshing it is an explicit act (REPRO_BENCH_OUTPUT=<here>).
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_evaluator.json"


def bench_output_path() -> Path:
    """Where the merged benchmark report is written.

    Defaults to ``BENCH_evaluator.json`` at the repository root (gitignored)
    regardless of the working directory, so running the benchmarks can never
    silently rewrite the committed baseline.
    """
    override = os.environ.get("REPRO_BENCH_OUTPUT")
    if override:
        return Path(override)
    return BASELINE_PATH.parent.parent / "BENCH_evaluator.json"


def _burn(_index: int) -> int:
    total = 0
    for value in range(_BURN_ITERATIONS):
        total += value * value % 7
    return total


def _timed(pool: ProcessPoolExecutor, tasks: int) -> float:
    start = time.perf_counter()
    list(pool.map(_burn, range(tasks)))
    return time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def measured_parallelism() -> float:
    """Throughput of two concurrent processes relative to one (ideal 2.0).

    Times the same fixed burn in one worker process, then in two at once,
    in a warmed-up pool, and returns the median ratio over a few such
    pairs: a shared VM's neighbours come and go within seconds, and
    adjacent timings see the same neighbours.  ``os.cpu_count()`` is not
    enough: a shared VM may report two cores and deliver ~1.2x.  Measured
    once per process.
    """
    # spawn, not fork: the calling process (pytest) may be running threads.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        list(pool.map(time.sleep, (0.2, 0.2)))  # start both workers
        ratios = [
            2.0 * _timed(pool, 1) / _timed(pool, 2)
            for _ in range(_PARALLELISM_ROUNDS)
        ]
    return round(statistics.median(ratios), 2)


def _load_report(path: Path) -> Dict:
    report = {"schema": BENCH_SCHEMA, "backends": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if existing.get("schema") == BENCH_SCHEMA:
                report = existing
        except (json.JSONDecodeError, OSError):
            pass
    # Provenance always describes the machine of the *latest* run.
    report["machine"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "parallelism": measured_parallelism(),
    }
    return report


def record_backend(
    backend: str,
    designs_per_sec: float,
    batch_size: int,
    circuit: str = "two_tia",
    extra: Optional[Dict] = None,
) -> Path:
    """Merge one backend's throughput into the benchmark report.

    Args:
        backend: Backend label (``serial``, ``batched``, ``parallel``,
            ``vectorized``, ...).
        designs_per_sec: Measured evaluation throughput.
        batch_size: Designs per ``evaluate_batch`` call during the run.
        circuit: Benchmark circuit the rate was measured on.
        extra: Optional additional fields stored verbatim.

    Returns:
        The path the report was written to.
    """
    path = bench_output_path()
    report = _load_report(path)
    entry = {
        "designs_per_sec": round(float(designs_per_sec), 2),
        "batch_size": int(batch_size),
        "circuit": circuit,
    }
    if extra:
        entry.update(extra)
    report["backends"][backend] = entry
    serial = report["backends"].get("serial", {}).get("designs_per_sec")
    vectorized = report["backends"].get("vectorized", {}).get("designs_per_sec")
    if serial and vectorized:
        report["vectorized_speedup_over_serial"] = round(vectorized / serial, 2)
    mixed_serial = report["backends"].get("mixed_serial", {}).get("designs_per_sec")
    mixed = report["backends"].get("mixed_workload", {}).get("designs_per_sec")
    if mixed_serial and mixed:
        report["mixed_workload_speedup_over_serial"] = round(
            mixed / mixed_serial, 2
        )
    ldo_serial = report["backends"].get("ldo_serial", {}).get("designs_per_sec")
    ldo = report["backends"].get("ldo_vectorized", {}).get("designs_per_sec")
    if ldo_serial and ldo:
        report["ldo_speedup_over_serial"] = round(ldo / ldo_serial, 2)
    rl_loop = report["backends"].get("rl_update_loop", {}).get("designs_per_sec")
    rl_batched = report["backends"].get("rl_update_batched", {}).get(
        "designs_per_sec"
    )
    if rl_loop and rl_batched:
        report["rl_update_speedup_over_loop"] = round(rl_batched / rl_loop, 2)
    coalescing = report["backends"].get("service", {}).get("coalescing_factor")
    if coalescing:
        report["service_coalescing_factor"] = round(float(coalescing), 2)
    campaign_serial = report["backends"].get("campaign_serial", {}).get(
        "designs_per_sec"
    )
    campaign_workers = report["backends"].get("campaign_workers", {}).get(
        "designs_per_sec"
    )
    if campaign_serial and campaign_workers:
        report["campaign_parallel_speedup"] = round(
            campaign_workers / campaign_serial, 2
        )
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
