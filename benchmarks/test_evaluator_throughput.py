"""Micro-benchmark: serial vs batched vs parallel design evaluation.

Measures designs/second through the three evaluation paths every optimizer
now shares:

* ``serial``  — one ``evaluate_sizing`` call per design (the pre-batch-API
  behaviour),
* ``batched`` — one ``evaluate_sizings`` call through a ``LocalEvaluator``,
* ``parallel`` — one batch through a ``ParallelEvaluator`` process pool.

Raise ``REPRO_BENCH_EVAL_DESIGNS`` / ``REPRO_BENCH_EVAL_WORKERS`` to stress
larger batches.  The parallel-speedup assertion only applies where two
processes measurably run in parallel (``bench_report.measured_parallelism``):
a process pool cannot beat serial execution on one core, nor on a shared VM
that reports two cores but time-slices them.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.env import SizingEnvironment, default_fom_config
from repro.eval import LocalEvaluator, ParallelEvaluator

from bench_report import PARALLELISM_GATE, measured_parallelism, record_backend
from conftest import _bench_int, run_once

#: Timing-sensitive: runs in the dedicated CI throughput job (by filename),
#: not in every tier-1 matrix cell, so a loaded runner cannot flake tier-1.
pytestmark = pytest.mark.slow

NUM_DESIGNS = _bench_int("REPRO_BENCH_EVAL_DESIGNS", 64)
NUM_WORKERS = _bench_int("REPRO_BENCH_EVAL_WORKERS", min(4, os.cpu_count() or 1))


@pytest.fixture(scope="module")
def circuit():
    return get_circuit("two_tia")


@pytest.fixture(scope="module")
def batch(circuit):
    """A fixed batch of random refined sizings shared by every mode."""
    rng = np.random.default_rng(7)
    return [circuit.random_sizing(rng) for _ in range(NUM_DESIGNS)]


def _fresh_env(circuit, evaluator=None):
    return SizingEnvironment(circuit, default_fom_config(circuit), evaluator=evaluator)


def _designs_per_second(fn, count):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return count / max(elapsed, 1e-9)


def test_serial_scalar_throughput(benchmark, circuit, batch):
    env = _fresh_env(circuit)

    def serial():
        for sizing in batch:
            env.evaluate_sizing(sizing)
        return len(env.history)

    assert run_once(benchmark, serial) == NUM_DESIGNS


def test_batched_local_throughput(benchmark, circuit, batch):
    env = _fresh_env(circuit)
    assert len(run_once(benchmark, env.evaluate_sizings, batch)) == NUM_DESIGNS


def test_batched_parallel_throughput(benchmark, circuit, batch):
    with ParallelEvaluator(circuit, max_workers=NUM_WORKERS) as pool:
        env = _fresh_env(circuit, evaluator=pool)
        # Pay pool start-up before timing, as a long optimization run would.
        pool.evaluate_batch(batch[:NUM_WORKERS])
        env.reset_history()
        assert len(run_once(benchmark, env.evaluate_sizings, batch)) == NUM_DESIGNS


def test_parallel_speedup_summary(circuit, batch, capsys):
    """Designs/sec summary; asserts a real speedup on parallel machines."""
    serial_env = _fresh_env(circuit)
    serial_rate = _designs_per_second(
        lambda: [serial_env.evaluate_sizing(s) for s in batch], len(batch)
    )
    batched_env = _fresh_env(circuit)
    batched_rate = _designs_per_second(
        lambda: batched_env.evaluate_sizings(batch), len(batch)
    )
    with ParallelEvaluator(circuit, max_workers=NUM_WORKERS) as pool:
        pool.evaluate_batch(batch[:NUM_WORKERS])  # warm the pool up
        parallel_env = _fresh_env(circuit, evaluator=pool)
        parallel_rate = _designs_per_second(
            lambda: parallel_env.evaluate_sizings(batch), len(batch)
        )
        pool_degraded = pool.degraded
    record_backend("serial_scalar", serial_rate, 1)
    record_backend("batched_local", batched_rate, len(batch))
    record_backend(
        "parallel",
        parallel_rate,
        len(batch),
        extra={"workers": NUM_WORKERS, "degraded": pool_degraded},
    )
    parallelism = measured_parallelism()
    gated = parallelism >= PARALLELISM_GATE and NUM_WORKERS >= 2
    with capsys.disabled():
        print(
            f"\n[evaluator-throughput] designs={len(batch)} "
            f"workers={NUM_WORKERS} serial={serial_rate:.1f}/s "
            f"batched={batched_rate:.1f}/s parallel={parallel_rate:.1f}/s "
            f"speedup={parallel_rate / serial_rate:.2f}x "
            f"parallelism={parallelism:.2f}x"
            + ("" if gated else " (recorded, not gated)")
        )
    rewards_serial = [h.reward for h in serial_env.history]
    rewards_parallel = [h.reward for h in parallel_env.history]
    assert rewards_parallel == rewards_serial
    if pool_degraded:
        pytest.skip("process pool unavailable in this environment (serial fallback)")
    if gated:
        # >1 designs/sec of headroom over serial, per the acceptance bar.
        assert parallel_rate > serial_rate + 1.0
