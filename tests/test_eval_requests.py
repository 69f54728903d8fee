"""Mixed-batch ``EvalRequest`` conformance across every evaluator backend.

The redesigned protocol promises that an arbitrarily interleaved batch of
requests — any circuits, any technologies — evaluated through one unbound
evaluator produces exactly the results the equivalent per-circuit
``evaluate_batch`` calls would, in request order.  These tests drive random
interleavings of every calibrated circuit × technology pair through the
local, caching and vectorized backends and compare against the per-circuit
reference, plus the request-keyed cache/peek semantics and the batched
homotopy that replaced the per-design scalar bail-out.
"""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.eval import (
    CachingEvaluator,
    EvalRequest,
    Evaluator,
    LocalEvaluator,
    VectorizedEvaluator,
    request_cache_key,
)


def calibrated_pairs():
    """Every (circuit, technology) pair with a committed FoM calibration."""
    from repro.env.fom import CALIBRATION_DIR

    pairs = []
    for path in sorted(CALIBRATION_DIR.glob("*.json")):
        circuit_name, technology = path.stem.rsplit("_", 1)
        pairs.append((circuit_name, technology))
    return pairs


PAIRS = calibrated_pairs()

#: Unbound evaluator stacks under conformance test: name -> factory.
MIXED_BACKENDS = {
    "local": lambda: LocalEvaluator(),
    "caching": lambda: CachingEvaluator(LocalEvaluator(), max_size=256),
    "vectorized": lambda: VectorizedEvaluator(),
    "caching+vectorized": lambda: CachingEvaluator(
        VectorizedEvaluator(), max_size=256
    ),
}

#: Backends whose stacked solves re-order floating-point accumulation; they
#: agree with the serial reference at solver precision, not bit-for-bit.
APPROXIMATE_BACKENDS = {"vectorized", "caching+vectorized"}


def mixed_requests(rng, designs_per_pair=2):
    """A randomly interleaved request list covering every calibrated pair."""
    requests = []
    for circuit_name, technology in PAIRS:
        circuit = get_circuit(circuit_name, technology)
        for index in range(designs_per_pair):
            sizing = (
                circuit.expert_sizing()
                if index == 0
                else circuit.random_sizing(rng)
            )
            requests.append(EvalRequest(circuit_name, technology, sizing))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


class TestMixedBatchConformance:
    @pytest.fixture(params=sorted(MIXED_BACKENDS))
    def backend_name(self, request):
        return request.param

    def test_matches_per_circuit_batches(self, backend_name, rng):
        """One mixed evaluate_requests == the per-circuit reference.

        Serial stacks must match bit-for-bit; the vectorized stacks match at
        solver precision (their stacked Newton solves re-order the
        floating-point accumulation).
        """
        requests = mixed_requests(rng)
        with MIXED_BACKENDS[backend_name]() as evaluator:
            results = evaluator.evaluate_requests(requests)

        assert len(results) == len(requests)
        # Per-circuit reference: each pair evaluated through a bound
        # LocalEvaluator, exactly as a dedicated environment would.
        by_bucket = {}
        for index, request in enumerate(requests):
            by_bucket.setdefault(request.bucket, []).append(index)
        for bucket, indices in by_bucket.items():
            first = requests[indices[0]]
            circuit = get_circuit(first.circuit, first.technology)
            reference = LocalEvaluator(circuit).evaluate_batch(
                [requests[i].sizing for i in indices]
            )
            for index, expected in zip(indices, reference):
                result = results[index]
                assert result.sizing is requests[index].sizing
                assert result.metrics.keys() == expected.metrics.keys()
                for key in expected.metrics:
                    if backend_name in APPROXIMATE_BACKENDS:
                        assert result.metrics[key] == pytest.approx(
                            expected.metrics[key], rel=1e-9, abs=1e-12
                        )
                    else:
                        assert result.metrics[key] == expected.metrics[key]

    def test_interleaving_is_irrelevant(self, backend_name):
        """Two different shuffles of the same requests agree bit-for-bit."""
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        requests = mixed_requests(rng_a, designs_per_pair=1)
        order = np.random.default_rng(11).permutation(len(requests))
        shuffled = [requests[i] for i in order]
        del rng_b

        with MIXED_BACKENDS[backend_name]() as evaluator:
            results = evaluator.evaluate_requests(requests)
        with MIXED_BACKENDS[backend_name]() as evaluator:
            results_shuffled = evaluator.evaluate_requests(shuffled)

        for position, index in enumerate(order):
            assert results_shuffled[position].metrics == results[index].metrics

    def test_stats_counted_once_per_mixed_batch(self, backend_name, rng):
        requests = mixed_requests(rng, designs_per_pair=1)
        with MIXED_BACKENDS[backend_name]() as evaluator:
            evaluator.evaluate_requests(requests)
            assert evaluator.stats.num_batches == 1
            assert evaluator.stats.num_designs == len(requests)
            assert evaluator.stats.total_time > 0


class TestEvaluateBatchAdapter:
    def test_bound_batch_equals_requests(self, two_tia, rng):
        sizings = [two_tia.random_sizing(rng) for _ in range(3)]
        bound = LocalEvaluator(two_tia)
        unbound = LocalEvaluator()
        batch = bound.evaluate_batch(sizings)
        requests = unbound.evaluate_requests(
            [EvalRequest("two_tia", "180nm", s) for s in sizings]
        )
        for a, b in zip(batch, requests):
            assert a.metrics == b.metrics

    def test_unbound_evaluate_batch_raises(self, rng):
        with pytest.raises(RuntimeError, match="not bound"):
            LocalEvaluator().evaluate_batch([{}])

    def test_bind_returns_noop_close_view(self, two_tia, rng):
        shared = LocalEvaluator()
        view = shared.bind(two_tia)
        view.evaluate_batch([two_tia.random_sizing(rng)])
        assert shared.stats.num_designs == 1  # stats funnel to the shared one
        view.close()
        # The shared evaluator survived the view's close.
        view2 = shared.bind(two_tia)
        view2.evaluate_batch([two_tia.random_sizing(rng)])
        assert shared.stats.num_designs == 2


class TestBackendHook:
    def test_missing_bucket_hook_is_named(self, two_tia):
        class Hookless(Evaluator):
            pass

        with pytest.raises(NotImplementedError, match=r"_evaluate_bucket\(\)$"):
            Hookless(two_tia).evaluate(two_tia.expert_sizing())


class TestRequestCacheKey:
    def test_same_sizing_different_circuit_never_collides(self, two_tia, rng):
        sizing = {"m1": {"w": 1e-6}}
        a = request_cache_key(EvalRequest("two_tia", "180nm", sizing))
        b = request_cache_key(EvalRequest("three_tia", "180nm", sizing))
        c = request_cache_key(EvalRequest("two_tia", "45nm", sizing))
        assert len({a, b, c}) == 3

    def test_key_is_case_insensitive_in_circuit_name(self):
        sizing = {"m1": {"w": 1e-6}}
        assert request_cache_key(
            EvalRequest("Two_TIA", "180nm", sizing)
        ) == request_cache_key(EvalRequest("two_tia", "180nm", sizing))

    def test_mixed_batch_dedup_is_per_request(self, rng):
        """The cache must dedup per (circuit, technology, sizing) triple."""
        two = get_circuit("two_tia")
        three = get_circuit("three_tia")
        sizing_two = two.random_sizing(rng)
        sizing_three = three.random_sizing(rng)
        evaluator = CachingEvaluator(LocalEvaluator(), max_size=64)
        requests = [
            EvalRequest("two_tia", "180nm", sizing_two),
            EvalRequest("three_tia", "180nm", sizing_three),
            EvalRequest("two_tia", "180nm", sizing_two),  # duplicate
        ]
        results = evaluator.evaluate_requests(requests)
        assert evaluator.stats.num_simulations == 2
        assert evaluator.stats.cache_hits == 1
        assert results[0].metrics == results[2].metrics

    def test_peek_is_request_keyed(self, rng):
        two = get_circuit("two_tia")
        sizing = two.random_sizing(rng)
        evaluator = CachingEvaluator(LocalEvaluator(), max_size=64)
        request = EvalRequest("two_tia", "180nm", sizing)
        assert evaluator.peek(request) is None
        [result] = evaluator.evaluate_requests([request])
        assert evaluator.peek(request) == result.metrics
        # Same sizing under another circuit is a different design entirely.
        assert evaluator.peek(EvalRequest("three_tia", "180nm", sizing)) is None


class TestBatchedHomotopy:
    """The masked homotopy replaces the per-design scalar bail-out."""

    def hard_designs(self, circuit, count=3):
        """All-lower-bound corners are the classic hard-to-converge designs."""
        space = circuit.parameter_space
        corner = space.vector_to_sizing([d.lower for d in space.definitions])
        rng = np.random.default_rng(5)
        return [corner] + [circuit.random_sizing(rng) for _ in range(count - 1)]

    def test_hard_designs_match_scalar_reference(self, two_tia):
        from repro.spice.batch.dc import batch_dc_operating_point
        from repro.spice.dc import dc_operating_point

        designs = self.hard_designs(two_tia)
        netlists = [two_tia.build_circuit(s) for s in designs]
        solutions = batch_dc_operating_point(netlists)
        for netlist, solution in zip(netlists, solutions):
            reference = dc_operating_point(netlist)
            assert solution.converged == reference.converged
            if reference.converged:
                assert np.allclose(
                    solution.x, reference.x, rtol=1e-9, atol=1e-12
                )

    def test_hard_designs_take_zero_scalar_fallbacks(self, two_tia):
        evaluator = VectorizedEvaluator()
        requests = [
            EvalRequest("two_tia", "180nm", sizing)
            for sizing in self.hard_designs(two_tia)
        ]
        results = evaluator.evaluate_requests(requests)
        assert len(results) == len(requests)
        assert evaluator.stats.scalar_fallbacks == 0

    def test_planless_circuit_counts_scalar_fallbacks(self, planless_tia):
        assert planless_tia.analysis_plan() is None
        evaluator = VectorizedEvaluator(planless_tia)
        evaluator.evaluate_requests(
            [EvalRequest("planless_tia", "180nm", planless_tia.expert_sizing())]
        )
        assert evaluator.stats.scalar_fallbacks == 1

    def test_ldo_buckets_take_zero_scalar_fallbacks(self, two_tia):
        ldo = get_circuit("ldo")
        evaluator = VectorizedEvaluator()
        results = evaluator.evaluate_requests(
            [
                EvalRequest("ldo", "180nm", ldo.expert_sizing()),
                EvalRequest("two_tia", "180nm", two_tia.expert_sizing()),
                EvalRequest("ldo", "180nm", ldo.expert_sizing()),
            ]
        )
        assert results[0].metrics == results[2].metrics == ldo.evaluate(ldo.expert_sizing())
        assert evaluator.stats.scalar_fallbacks == 0
