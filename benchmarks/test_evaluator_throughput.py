"""Micro-benchmark: serial vs batched design evaluation on the scalar engine.

Measures designs/second through the two scalar-engine paths every optimizer
shares:

* ``serial``  — one ``evaluate_sizing`` call per design (the pre-batch-API
  behaviour),
* ``batched`` — one ``evaluate_sizings`` call through a ``LocalEvaluator``.

The stacked engine's rates live in ``test_vectorized_throughput.py``.
Raise ``REPRO_BENCH_EVAL_DESIGNS`` to stress larger batches.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.env import SizingEnvironment, default_fom_config

from bench_report import record_backend
from conftest import _bench_int, run_once

#: Timing-sensitive: runs in the dedicated CI throughput job (by filename),
#: not in every tier-1 matrix cell, so a loaded runner cannot flake tier-1.
pytestmark = pytest.mark.slow

NUM_DESIGNS = _bench_int("REPRO_BENCH_EVAL_DESIGNS", 64)


@pytest.fixture(scope="module")
def circuit():
    return get_circuit("two_tia")


@pytest.fixture(scope="module")
def batch(circuit):
    """A fixed batch of random refined sizings shared by every mode."""
    rng = np.random.default_rng(7)
    return [circuit.random_sizing(rng) for _ in range(NUM_DESIGNS)]


def _fresh_env(circuit):
    return SizingEnvironment(circuit, default_fom_config(circuit))


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


def test_serial_vs_batched_summary(circuit, batch, capsys):
    """Records both designs/sec rates; the batch must change no reward."""
    serial_env = _fresh_env(circuit)
    serial_rate = _designs_per_second(
        lambda: [serial_env.evaluate_sizing(s) for s in batch], len(batch)
    )
    batched_env = _fresh_env(circuit)
    batched_rate = _designs_per_second(
        lambda: batched_env.evaluate_sizings(batch), len(batch)
    )
    record_backend("serial_scalar", serial_rate, 1)
    record_backend("batched_local", batched_rate, len(batch))
    with capsys.disabled():
        print(
            f"\n[evaluator-throughput] designs={len(batch)} "
            f"serial={serial_rate:.1f}/s batched={batched_rate:.1f}/s"
        )
    rewards_serial = [h.reward for h in serial_env.history]
    rewards_batched = [h.reward for h in batched_env.history]
    assert rewards_batched == rewards_serial
