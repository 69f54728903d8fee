"""Micro-benchmark: vectorized (stacked-solve) vs serial design evaluation.

The acceptance bar for the vectorized backend is >= 3x serial designs/sec on
a 32-design Two-TIA batch; this module measures both paths on identical
batches, verifies the results agree, and records the rates into
``BENCH_evaluator.json`` (see ``bench_report.py``).  The hard >= 3x gate is
enforced by ``check_bench_gate.py`` in CI — the in-test assertion uses a
lower bar so a noisy machine cannot flake the test suite itself.  The LDO,
which has no analysis plan, is measured on its own stacked path (gated at
>= 3x serial).  One-design batches (B=1, the latency regime of RL steps
and served single requests) are measured and recorded, not gated.

Raise ``REPRO_BENCH_VEC_DESIGNS`` to stress larger batches.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.env import default_fom_config
from repro.eval import LocalEvaluator, VectorizedEvaluator

from bench_report import record_backend
from conftest import _bench_int

#: Timing-sensitive: runs in the dedicated CI throughput job (by filename),
#: not in every tier-1 matrix cell, so a loaded runner cannot flake tier-1.
pytestmark = pytest.mark.slow

NUM_DESIGNS = _bench_int("REPRO_BENCH_VEC_DESIGNS", 32)
#: In-test sanity bar (the CI gate enforces the real 3x acceptance margin).
MIN_SPEEDUP_IN_TEST = 1.5
#: LDO chunk size: one ES generation, as in the ``ldo_es`` workload.
LDO_DESIGNS = 13
#: Designs of the B=1 case, each evaluated as its own batch.
B1_DESIGNS = 64


@pytest.fixture(scope="module")
def circuit():
    return get_circuit("two_tia")


@pytest.fixture(scope="module")
def batch(circuit):
    rng = np.random.default_rng(7)
    return [circuit.random_sizing(rng) for _ in range(NUM_DESIGNS)]


def _rate(evaluator, batch, repeats=1):
    """Designs/sec of the fastest of ``repeats`` timed runs, after a warm-up."""
    evaluator.evaluate_batch(batch[: min(4, len(batch))])  # warm-up
    elapsed = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = evaluator.evaluate_batch(batch)
        elapsed.append(time.perf_counter() - start)
    return len(batch) / max(min(elapsed), 1e-9), results


def test_vectorized_vs_serial_throughput(circuit, batch, capsys):
    serial_rate, serial_results = _rate(LocalEvaluator(circuit), batch)
    vectorized_rate, vectorized_results = _rate(VectorizedEvaluator(circuit), batch)
    speedup = vectorized_rate / serial_rate

    # Parity first: a fast wrong answer is worthless.
    fom = default_fom_config(circuit)
    for reference, result in zip(serial_results, vectorized_results):
        assert fom.compute(result.metrics) == pytest.approx(
            fom.compute(reference.metrics), rel=1e-9, abs=1e-9
        )

    record_backend("serial", serial_rate, NUM_DESIGNS)
    record_backend("vectorized", vectorized_rate, NUM_DESIGNS)
    with capsys.disabled():
        print(
            f"\n[vectorized-throughput] designs={NUM_DESIGNS} "
            f"serial={serial_rate:.1f}/s vectorized={vectorized_rate:.1f}/s "
            f"speedup={speedup:.2f}x"
        )
    assert speedup > MIN_SPEEDUP_IN_TEST


def test_single_design_batches_vs_serial(circuit, capsys):
    """B=1: every design its own batch, through each backend, best of three.

    Recorded as ``serial_b1`` and ``vectorized_b1``; ``check_bench_gate.py``
    prints the ratio without gating it.  A one-design batch must give
    exactly the metrics its design gets inside a full chunk.  Against the
    serial backend the FoM agrees to the tolerance used above: the plan
    circuits' batched DC matches the scalar solver to ~1e-13, not bit for bit.
    """
    rng = np.random.default_rng(11)
    designs = [circuit.random_sizing(rng) for _ in range(B1_DESIGNS)]

    def rate(evaluator):
        evaluator.evaluate_batch(designs[:1])  # warm-up
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            results = [evaluator.evaluate_batch([design])[0] for design in designs]
            elapsed.append(time.perf_counter() - start)
        return len(designs) / max(min(elapsed), 1e-9), results

    serial_rate, serial_results = rate(LocalEvaluator(circuit))
    vectorized_rate, vectorized_results = rate(VectorizedEvaluator(circuit))
    speedup = vectorized_rate / serial_rate

    chunk = VectorizedEvaluator(circuit).evaluate_batch(designs)
    assert [r.metrics for r in vectorized_results] == [r.metrics for r in chunk]
    fom = default_fom_config(circuit)
    for reference, result in zip(serial_results, vectorized_results):
        assert fom.compute(result.metrics) == pytest.approx(
            fom.compute(reference.metrics), rel=1e-9, abs=1e-9
        )

    record_backend("serial_b1", serial_rate, 1)
    record_backend("vectorized_b1", vectorized_rate, 1)
    with capsys.disabled():
        print(
            f"\n[b1-throughput] designs={B1_DESIGNS} "
            f"serial={serial_rate:.1f}/s vectorized={vectorized_rate:.1f}/s "
            f"speedup={speedup:.2f}x"
        )


def test_mixed_workload_throughput(capsys):
    """Cross-topology batching: one mixed evaluate_requests vs serial.

    A uniform two_tia/three_tia/two_volt mix, interleaved, through one
    unbound evaluator — the traffic shape the service coalescer and the
    campaign's shared evaluator produce.  The vectorized backend must bucket
    the mix into three stacked solves and beat the serial reference >= 3x
    (CI gate), with zero designs leaving the vectorized fast path.
    """
    from repro.eval import EvalRequest

    circuits = ["two_tia", "three_tia", "two_volt"]
    per_circuit = max(NUM_DESIGNS // len(circuits), 4)
    rng = np.random.default_rng(13)
    requests = []
    for name in circuits:
        design = get_circuit(name)
        requests.extend(
            EvalRequest(name, "180nm", design.random_sizing(rng))
            for _ in range(per_circuit)
        )
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    warmup = [requests[i] for i in range(0, len(requests), per_circuit)]

    def rate(evaluator):
        evaluator.evaluate_requests(warmup)
        start = time.perf_counter()
        results = evaluator.evaluate_requests(requests)
        return len(requests) / max(time.perf_counter() - start, 1e-9), results

    serial_rate, serial_results = rate(LocalEvaluator())
    vectorized = VectorizedEvaluator()
    vectorized_rate, vectorized_results = rate(vectorized)
    speedup = vectorized_rate / serial_rate

    for request, reference, result in zip(requests, serial_results, vectorized_results):
        fom = default_fom_config(get_circuit(request.circuit, request.technology))
        assert fom.compute(result.metrics) == pytest.approx(
            fom.compute(reference.metrics), rel=1e-9, abs=1e-9
        )

    record_backend("mixed_serial", serial_rate, len(requests), circuit="mixed")
    record_backend(
        "mixed_workload",
        vectorized_rate,
        len(requests),
        circuit="mixed",
        extra={
            "circuits": circuits,
            "scalar_fallback_designs": vectorized.stats.scalar_fallbacks,
        },
    )
    with capsys.disabled():
        print(
            f"\n[mixed-workload] designs={len(requests)} "
            f"serial={serial_rate:.1f}/s vectorized={vectorized_rate:.1f}/s "
            f"speedup={speedup:.2f}x "
            f"fallbacks={vectorized.stats.scalar_fallbacks}"
        )
    assert vectorized.stats.scalar_fallbacks == 0
    assert speedup > MIN_SPEEDUP_IN_TEST


def test_ldo_stacked_vs_serial_throughput(capsys):
    """The LDO's stacked path against serial evaluation, on one ES chunk.

    The vectorized backend solves the chunk's light- and heavy-load
    operating points in one scalar-exact stacked DC and its settling
    transients in one batched solve, so its metrics must equal the serial
    ones exactly.  ``check_bench_gate.py --min-ldo-speedup`` gates the rate
    ratio: falling back to one DC solve per design fails CI.
    """
    ldo = get_circuit("ldo")
    rng = np.random.default_rng(21)
    chunk = [ldo.random_sizing(rng) for _ in range(LDO_DESIGNS)]
    # Best of three: one timed chunk is short enough for noise to matter.
    serial_rate, serial_results = _rate(LocalEvaluator(ldo), chunk, repeats=3)
    vectorized = VectorizedEvaluator(ldo)
    vectorized_rate, vectorized_results = _rate(vectorized, chunk, repeats=3)
    speedup = vectorized_rate / serial_rate

    assert [r.metrics for r in vectorized_results] == [r.metrics for r in serial_results]
    record_backend("ldo_serial", serial_rate, LDO_DESIGNS, circuit="ldo")
    record_backend(
        "ldo_vectorized",
        vectorized_rate,
        LDO_DESIGNS,
        circuit="ldo",
        extra={"scalar_fallback_designs": vectorized.stats.scalar_fallbacks},
    )
    with capsys.disabled():
        print(
            f"\n[ldo-throughput] designs={LDO_DESIGNS} "
            f"serial={serial_rate:.1f}/s vectorized={vectorized_rate:.1f}/s "
            f"speedup={speedup:.2f}x"
        )
    assert vectorized.stats.scalar_fallbacks == 0
    assert speedup > 1.0


def test_vectorized_scales_with_batch_size(circuit, batch):
    """Stacked solves amortise: bigger batches must not get slower per design."""
    sizes = [size for size in (8, NUM_DESIGNS) if size <= len(batch)]
    rates = {}
    evaluator = VectorizedEvaluator(circuit)
    for size in sizes:
        start = time.perf_counter()
        evaluator.evaluate_batch(batch[:size])
        rates[size] = size / max(time.perf_counter() - start, 1e-9)
    record_backend(
        "vectorized_scaling",
        rates[sizes[-1]],
        sizes[-1],
        extra={"rates_by_batch_size": {str(k): round(v, 2) for k, v in rates.items()}},
    )
    # Generous factor: absolute rates are noisy, the trend must hold.
    assert rates[sizes[-1]] > 0.5 * rates[sizes[0]]
