"""Tests for the unified evaluation subsystem (``repro.eval``)."""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.env import SizingEnvironment, default_fom_config
from repro.eval import (
    BACKENDS,
    CachingEvaluator,
    EvalResult,
    EvaluatorConfig,
    LocalEvaluator,
    VectorizedEvaluator,
    build_evaluator,
    sizing_cache_key,
)
from repro.eval import vectorized as vectorized_module
from repro.experiments.driver import OptimizationDriver
from repro.experiments.runner import run_key_for
from repro.optim import RandomSearch

#: Every conformance backend: name -> evaluator factory.  ``caching+X``
#: stacks the LRU cache over backend ``X``, exactly like EvaluatorConfig.
CONFORMANCE_BACKENDS = {
    "local": lambda circuit: LocalEvaluator(circuit),
    "caching": lambda circuit: CachingEvaluator(LocalEvaluator(circuit), max_size=64),
    "vectorized": lambda circuit: VectorizedEvaluator(circuit),
    "caching+vectorized": lambda circuit: CachingEvaluator(
        VectorizedEvaluator(circuit), max_size=64
    ),
}

#: Backends that re-order floating-point accumulation (stacked solves); their
#: results match the serial reference at solver precision, not bit-for-bit.
APPROXIMATE_BACKENDS = {"vectorized", "caching+vectorized"}


@pytest.fixture()
def sizings(two_tia, rng):
    """A handful of random refined sizings of the shared Two-TIA circuit."""
    return [two_tia.random_sizing(rng) for _ in range(6)]


class CountingEvaluator(LocalEvaluator):
    """Local evaluator that counts how many designs it actually simulates."""

    def __init__(self, circuit):
        super().__init__(circuit)
        self.simulated = 0

    def _evaluate_bucket(self, circuit, sizings):
        self.simulated += len(sizings)
        return super()._evaluate_bucket(circuit, sizings)


class TestLocalEvaluator:
    def test_matches_direct_circuit_evaluate(self, two_tia, sizings):
        evaluator = LocalEvaluator(two_tia)
        results = evaluator.evaluate_batch(sizings)
        for sizing, result in zip(sizings, results):
            assert result.sizing is sizing
            assert result.metrics == two_tia.evaluate(sizing)
            assert not result.cached

    def test_stats_counted(self, two_tia, sizings):
        evaluator = LocalEvaluator(two_tia)
        evaluator.evaluate_batch(sizings)
        evaluator.evaluate(sizings[0])
        assert evaluator.stats.num_batches == 2
        assert evaluator.stats.num_designs == len(sizings) + 1
        assert evaluator.stats.num_simulations == len(sizings) + 1
        assert evaluator.stats.total_time > 0


class TestCachingEvaluator:
    def test_hit_counts_and_identical_results(self, two_tia, sizings):
        counting = CountingEvaluator(two_tia)
        evaluator = CachingEvaluator(counting, max_size=64)
        first = evaluator.evaluate_batch(sizings)
        second = evaluator.evaluate_batch(sizings)
        assert counting.simulated == len(sizings)  # second pass all hits
        assert evaluator.stats.cache_hits == len(sizings)
        assert evaluator.stats.num_simulations == len(sizings)
        for a, b in zip(first, second):
            assert a.metrics == b.metrics
            assert not a.cached and b.cached

    def test_duplicates_within_one_batch_simulated_once(self, two_tia, sizings):
        counting = CountingEvaluator(two_tia)
        evaluator = CachingEvaluator(counting, max_size=64)
        results = evaluator.evaluate_batch([sizings[0], sizings[0], sizings[1]])
        assert counting.simulated == 2
        assert evaluator.stats.cache_hits == 1
        assert results[0].metrics == results[1].metrics

    def test_mutating_a_result_never_corrupts_the_cache(self, two_tia, sizings):
        evaluator = CachingEvaluator(LocalEvaluator(two_tia), max_size=8)
        first = evaluator.evaluate_batch(sizings[:1])[0]
        first.metrics["gain"] = -123.0
        again = evaluator.evaluate_batch(sizings[:1])[0]
        assert again.metrics["gain"] != -123.0

    def test_lru_eviction_bounds_size(self, two_tia, sizings):
        evaluator = CachingEvaluator(LocalEvaluator(two_tia), max_size=2)
        evaluator.evaluate_batch(sizings)
        assert len(evaluator) == 2
        assert evaluator.stats.cache_evictions == len(sizings) - 2
        # Batch larger than the cache still returns every result.
        results = evaluator.evaluate_batch(sizings)
        assert len(results) == len(sizings)

    def test_cache_key_quantizes_and_canonicalises(self):
        a = {"m2": {"w": 1e-6, "l": 2e-7}, "m1": {"w": 3e-6}}
        b = {"m1": {"w": 3e-6 * (1 + 1e-15)}, "m2": {"l": 2e-7, "w": 1e-6}}
        assert sizing_cache_key(a) == sizing_cache_key(b)
        c = {"m1": {"w": 3.1e-6}, "m2": {"w": 1e-6, "l": 2e-7}}
        assert sizing_cache_key(a) != sizing_cache_key(c)


class TestBackendConformance:
    """Every backend passes one suite: same results, same contract."""

    @pytest.fixture(params=sorted(CONFORMANCE_BACKENDS))
    def backend_name(self, request):
        return request.param

    @pytest.fixture()
    def evaluator(self, backend_name, two_tia):
        with CONFORMANCE_BACKENDS[backend_name](two_tia) as evaluator:
            yield evaluator

    def _assert_metrics_match(self, backend_name, got, reference):
        for result, expected in zip(got, reference):
            assert result.metrics.keys() == expected.metrics.keys()
            for key in expected.metrics:
                if backend_name in APPROXIMATE_BACKENDS:
                    assert result.metrics[key] == pytest.approx(
                        expected.metrics[key], rel=1e-6, abs=1e-12
                    )
                else:
                    assert result.metrics[key] == expected.metrics[key]

    def test_matches_local_reference(self, backend_name, evaluator, two_tia, sizings):
        reference = LocalEvaluator(two_tia).evaluate_batch(sizings)
        results = evaluator.evaluate_batch(sizings)
        assert [r.sizing for r in results] == list(sizings)
        self._assert_metrics_match(backend_name, results, reference)

    def test_scalar_call_is_batch_of_one(self, backend_name, evaluator, sizings):
        single = evaluator.evaluate(sizings[0])
        batch = evaluator.evaluate_batch([sizings[0]])[0]
        assert single.metrics.keys() == batch.metrics.keys()

    def test_stats_count_every_design(self, evaluator, sizings):
        evaluator.evaluate_batch(sizings)
        assert evaluator.stats.num_batches == 1
        assert evaluator.stats.num_designs == len(sizings)
        assert evaluator.stats.total_time > 0

    def test_quantized_cache_key_interaction(self, backend_name, evaluator, sizings):
        """Sub-ULP jitter of a sizing must hit the same cache entry.

        The caching stacks serve the jittered design from the cache (exact
        metrics, zero extra simulations); the plain backends re-simulate the
        almost-identical netlist, whose metrics agree to solver precision —
        so quantized keys can never alias visibly different designs.
        """
        base = sizings[0]
        jittered = {
            comp: {name: value * (1 + 1e-15) for name, value in params.items()}
            for comp, params in base.items()
        }
        assert sizing_cache_key(base) == sizing_cache_key(jittered)
        first = evaluator.evaluate_batch([base])[0]
        second = evaluator.evaluate_batch([jittered])[0]
        if backend_name.startswith("caching"):
            assert first.metrics == second.metrics  # exact: served from cache
            assert second.cached
            assert evaluator.stats.cache_hits == 1
            assert evaluator.stats.num_simulations == 1
        else:
            for key in first.metrics:
                assert second.metrics[key] == pytest.approx(
                    first.metrics[key], rel=1e-6, abs=1e-12
                )

    def test_optimization_run_matches_local(self, backend_name, evaluator, two_tia):
        def run(inner):
            env = SizingEnvironment(
                two_tia, default_fom_config(two_tia), evaluator=inner
            )
            return OptimizationDriver(RandomSearch(env, seed=3), budget=6).run()

        reference = run(LocalEvaluator(two_tia))
        result = run(evaluator)
        if backend_name in APPROXIMATE_BACKENDS:
            assert result.rewards == pytest.approx(reference.rewards, rel=1e-9, abs=1e-9)
        else:
            assert result.rewards == reference.rewards


class TestVectorizedEvaluator:
    def test_in_backends_registry(self):
        assert "vectorized" in BACKENDS

    def test_config_builds_vectorized_stack(self, two_tia):
        evaluator = EvaluatorConfig(backend="vectorized", cache_size=8).build(two_tia)
        assert isinstance(evaluator, CachingEvaluator)
        assert isinstance(evaluator.inner, VectorizedEvaluator)

    def test_chunking_preserves_order_and_results(
        self, two_tia, sizings, monkeypatch
    ):
        whole = VectorizedEvaluator(two_tia).evaluate_batch(sizings)
        monkeypatch.setattr(vectorized_module, "MAX_BATCH", 2)
        chunks = []
        real_chunk = VectorizedEvaluator._evaluate_chunk

        def spy(self, circuit, chunk, plan):
            chunks.append(len(chunk))
            return real_chunk(self, circuit, chunk, plan)

        monkeypatch.setattr(VectorizedEvaluator, "_evaluate_chunk", spy)
        chunked = VectorizedEvaluator(two_tia).evaluate_batch(sizings)
        assert chunks == [2, 2, 2]
        for a, b in zip(whole, chunked):
            assert a.sizing is b.sizing
            for key in a.metrics:
                assert a.metrics[key] == pytest.approx(b.metrics[key], rel=1e-9)

    def test_planless_circuit_falls_back_to_serial(self, planless_tia):
        circuit = planless_tia
        assert circuit.analysis_plan() is None
        sizing = circuit.expert_sizing()
        evaluator = VectorizedEvaluator(circuit)
        vectorized = evaluator.evaluate_batch([sizing])
        local = LocalEvaluator(circuit).evaluate_batch([sizing])
        assert vectorized[0].metrics == local[0].metrics  # exact: same code path
        assert evaluator.stats.scalar_fallbacks == 1

    def test_ldo_takes_the_stacked_path(self, monkeypatch):
        ldo = get_circuit("ldo")
        assert ldo.analysis_plan() is None
        rng = np.random.default_rng(4)
        sizings = [ldo.expert_sizing(), ldo.random_sizing(rng), ldo.random_sizing(rng)]
        monkeypatch.setattr(vectorized_module, "MAX_BATCH", 2)
        evaluator = VectorizedEvaluator(ldo)
        vectorized = evaluator.evaluate_batch(sizings)
        local = LocalEvaluator(ldo).evaluate_batch(sizings)
        assert [r.metrics for r in vectorized] == [r.metrics for r in local]
        assert evaluator.stats.scalar_fallbacks == 0

    def test_failed_designs_report_failure_metrics(self, two_tia, monkeypatch):
        """Designs the DC stage cannot converge must yield failure metrics."""
        from repro.spice.batch import dc as batch_dc

        def never_converges(template, x0, *args, **kwargs):
            batch = template.batch_size
            return (
                np.zeros_like(x0),
                np.zeros(batch, dtype=bool),
                np.zeros(batch, dtype=int),
            )

        monkeypatch.setattr(batch_dc, "batch_newton", never_converges)
        rng = np.random.default_rng(1)
        sizing = two_tia.random_sizing(rng)
        result = VectorizedEvaluator(two_tia).evaluate_batch([sizing])[0]
        assert result.metrics["simulation_failed"] == 1.0


class TestCalibratedPairParity:
    """FoM parity vs LocalEvaluator on every calibrated circuit × technology."""

    def _calibrated_pairs():
        from repro.env.fom import CALIBRATION_DIR

        pairs = []
        for path in sorted(CALIBRATION_DIR.glob("*.json")):
            circuit_name, technology = path.stem.rsplit("_", 1)
            pairs.append((circuit_name, technology))
        return pairs

    PAIRS = _calibrated_pairs()

    def test_every_calibrated_pair_is_covered(self):
        assert ("two_tia", "180nm") in self.PAIRS
        assert ("ldo", "180nm") in self.PAIRS
        assert len(self.PAIRS) >= 12

    @pytest.mark.parametrize("circuit_name,technology", PAIRS)
    def test_fom_parity_with_local(self, circuit_name, technology):
        circuit = get_circuit(circuit_name, technology)
        rng = np.random.default_rng(99)
        designs = [circuit.expert_sizing()] + [
            circuit.random_sizing(rng) for _ in range(2)
        ]
        fom = default_fom_config(circuit)
        local = LocalEvaluator(circuit).evaluate_batch(designs)
        vectorized = VectorizedEvaluator(circuit).evaluate_batch(designs)
        for reference, result in zip(local, vectorized):
            assert fom.compute(result.metrics) == pytest.approx(
                fom.compute(reference.metrics), rel=1e-9, abs=1e-9
            )


class TestEvaluatorConfig:
    def test_build_local_default(self, two_tia):
        assert isinstance(build_evaluator(two_tia), LocalEvaluator)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            EvaluatorConfig(backend="quantum")
        with pytest.raises(ValueError):
            EvaluatorConfig(cache_size=-1)

    def test_cache_keys_distinguish_configs(self):
        keys = {
            EvaluatorConfig().cache_key(),
            EvaluatorConfig(backend="vectorized").cache_key(),
            EvaluatorConfig(cache_size=32).cache_key(),
        }
        assert len(keys) == 3

    @pytest.mark.parametrize(
        "config,key_id,method",
        [
            (EvaluatorConfig(), "776b77f35c9f0cf3f436f6d149a1c186", "es"),
            (
                EvaluatorConfig(backend="vectorized", cache_size=64),
                "c52edc9ac6e8ad12ba50c7d8ec9e31ba",
                "es",
            ),
            (EvaluatorConfig(), "2d6ffb1a5fad77c1a40222666fe75979", "gcn_rl"),
        ],
    )
    def test_run_key_bytes_are_pinned(self, config, key_id, method):
        """Every stored run and checkpoint is found by this digest."""
        key = run_key_for(method, "two_tia", steps=8, seed=0, evaluator_config=config)
        assert key.key_id() == key_id


class TestEnvironmentBatchAPI:
    def _fresh_env(self, circuit, **kwargs):
        return SizingEnvironment(circuit, default_fom_config(circuit), **kwargs)

    def test_step_batch_history_matches_sequential_steps(self, two_tia, rng):
        n, d = two_tia.num_components, 4
        actions_batch = [rng.uniform(-1, 1, size=(n, d)) for _ in range(5)]
        env_batch = self._fresh_env(two_tia)
        env_seq = self._fresh_env(two_tia)
        batch_results = env_batch.step_batch(actions_batch)
        seq_results = [env_seq.step(a) for a in actions_batch]
        assert [r.reward for r in batch_results] == [r.reward for r in seq_results]
        assert [h.reward for h in env_batch.history] == [
            h.reward for h in env_seq.history
        ]
        assert [r.step_index for r in batch_results] == list(range(5))
        assert env_batch.best_reward == env_seq.best_reward
        assert env_batch.best_sizing == env_seq.best_sizing

    def test_normalized_batch_matches_scalar_path(self, two_tia, rng):
        dim = two_tia.parameter_space.dimension
        vectors = rng.uniform(-1, 1, size=(3, dim))
        env_batch = self._fresh_env(two_tia)
        env_seq = self._fresh_env(two_tia)
        batch = env_batch.evaluate_normalized_batch(vectors)
        scalar = [env_seq.evaluate_normalized_vector(v) for v in vectors]
        assert [r.reward for r in batch] == [r.reward for r in scalar]

    def test_step_batch_validates_shapes_before_simulating(self, two_tia):
        env = self._fresh_env(two_tia)
        with pytest.raises(ValueError):
            env.step_batch([np.zeros((2, 3))])
        assert env.history == []

    def test_environment_rejects_foreign_evaluator(self, two_tia):
        other = get_circuit("three_tia")
        with pytest.raises(ValueError):
            SizingEnvironment(two_tia, evaluator=LocalEvaluator(other))

    def test_scalar_only_override_is_honoured_by_batch_methods(self, two_tia):
        """Legacy subclasses overriding only step() must keep working.

        The batched RL warm-up goes through step_batch; a synthetic
        environment that replaces step() alone must still see its reward
        used, not the real simulator.
        """

        class ScalarOnlyEnvironment(SizingEnvironment):
            def step(self, actions):
                return self._record(42.0, {"synthetic": 42.0}, {})

            def evaluate_normalized_vector(self, vector):
                return self._record(-7.0, {"synthetic": -7.0}, {})

        env = ScalarOnlyEnvironment(two_tia)
        n, d = two_tia.num_components, env.action_dim
        batch = env.step_batch([np.zeros((n, d)), np.zeros((n, d))])
        assert [r.reward for r in batch] == [42.0, 42.0]
        flat = env.evaluate_normalized_batch(np.zeros((2, env.parameter_dimension)))
        assert [r.reward for r in flat] == [-7.0, -7.0]

    def test_all_paths_share_one_evaluator(self, two_tia, rng):
        counting = CountingEvaluator(two_tia)
        env = self._fresh_env(two_tia, evaluator=counting)
        env.evaluate_sizing(two_tia.expert_sizing())
        env.random_step(rng)
        env.step(np.zeros((two_tia.num_components, env.action_dim)))
        env.evaluate_normalized_vector(np.zeros(env.parameter_dimension))
        assert counting.simulated == 4
        assert len(env.history) == 4


class TestOptimizersUnderParallelism:
    """Acceptance: a shared design cache is invisible in optimization results."""

    def test_caching_changes_no_rewards_across_restarts(self, two_tia):
        cached = CachingEvaluator(LocalEvaluator(two_tia), max_size=256)

        def run(evaluator):
            env = SizingEnvironment(
                two_tia, default_fom_config(two_tia), evaluator=evaluator
            )
            return OptimizationDriver(RandomSearch(env, seed=2), budget=6).run()

        baseline = run(LocalEvaluator(two_tia))
        first = run(cached)
        second = run(cached)  # identical seed: every design is a cache hit
        assert first.rewards == baseline.rewards
        assert second.rewards == baseline.rewards
        assert cached.stats.cache_hits == 6


class TestOptimizationResultSerialization:
    def test_best_so_far_empty_is_float64(self):
        from repro.optim import OptimizationResult

        result = OptimizationResult("random", 0.0, {}, {})
        curve = result.best_so_far()
        assert curve.dtype == np.float64
        assert curve.size == 0

    def test_to_dict_round_trips_through_json(self, two_tia):
        import json

        env = SizingEnvironment(two_tia, default_fom_config(two_tia))
        result = OptimizationDriver(RandomSearch(env, seed=0), budget=2).run()
        data = json.loads(json.dumps(result.to_dict()))
        assert data["method"] == "random"
        assert data["num_evaluations"] == 2
        assert len(data["rewards"]) == 2
        assert data["best_sizing"]
