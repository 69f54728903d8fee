"""Tests for the ask/tell Strategy protocol and the OptimizationDriver.

The parity classes re-implement the *pre-redesign* monolithic ``run(budget)``
loops verbatim (as plain functions over the same strategy hyper-parameters
and RNG streams) and assert the driver-driven ask/tell path reproduces their
learning curves bit for bit — the contract the API redesign promised.
"""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.env import SizingEnvironment
from repro.experiments.driver import DriverStep, OptimizationDriver
from repro.optim import (
    BayesianOptimization,
    EvolutionStrategy,
    MACE,
    OptimizationResult,
    Proposal,
    RandomSearch,
    Strategy,
    get_strategy,
    list_optimizers,
    register_strategy,
    strategy_config_fields,
)
from repro.optim.gaussian_process import (
    GaussianProcess,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.optim.mace import pareto_front_indices
from repro.rl.agent import AgentConfig, GCNRLAgent, TrainingRecord
from repro.rl.strategy import GCNRLStrategy
from repro.store import MemoryStore, SqliteStore, make_run_key


class QuadraticEnvironment(SizingEnvironment):
    """Synthetic environment: reward peaks at a known point of the cube."""

    def __init__(self, circuit, optimum=0.3):
        super().__init__(circuit)
        self.optimum = optimum

    def evaluate_normalized_batch(self, vectors) -> list:
        results = []
        for vector in vectors:
            vector = np.asarray(vector, dtype=float)
            reward = 1.0 - float(np.mean((vector - self.optimum) ** 2))
            results.append(self._record(reward, {"synthetic": reward}, {}))
        return results


def make_env():
    return QuadraticEnvironment(get_circuit("two_tia"))


def eval_batch(environment, points):
    """The old ``BlackBoxOptimizer._evaluate_batch`` helper, verbatim."""
    points = np.clip(np.asarray(points, dtype=float), -1.0, 1.0)
    results = environment.evaluate_normalized_batch(points)
    return np.asarray([r.reward for r in results], dtype=np.float64)


# --- the pre-redesign run(budget) loops, preserved as references ----------------------


def legacy_random(opt, budget):
    if budget > 0:
        points = opt.rng.uniform(-1.0, 1.0, size=(budget, opt.dimension))
        eval_batch(opt.environment, points)


def legacy_es(opt, budget):
    d = opt.dimension
    mean = np.zeros(d)
    sigma = opt.initial_sigma
    covariance = np.eye(d)
    path_sigma = np.zeros(d)
    path_c = np.zeros(d)
    evaluations = 0
    generation = 0
    while evaluations < budget:
        lam = min(opt.population_size, budget - evaluations)
        try:
            chol = np.linalg.cholesky(covariance + 1e-10 * np.eye(d))
        except np.linalg.LinAlgError:
            covariance = np.eye(d)
            chol = np.eye(d)
        raw = opt.rng.standard_normal((lam, d))
        offspring = np.clip(mean + sigma * raw @ chol.T, -1.0, 1.0)
        rewards = eval_batch(opt.environment, offspring)
        evaluations += lam
        if lam < opt.num_parents:
            break
        order = np.argsort(-rewards)
        parents = offspring[order[: opt.num_parents]]
        steps = (parents - mean) / max(sigma, 1e-12)
        new_mean = mean + sigma * opt.weights @ steps
        inv_chol = np.linalg.inv(chol)
        mean_step = opt.weights @ steps
        path_sigma = (1 - opt.c_sigma) * path_sigma + np.sqrt(
            opt.c_sigma * (2 - opt.c_sigma) * opt.mu_eff
        ) * (inv_chol @ mean_step)
        sigma *= np.exp(
            (opt.c_sigma / opt.d_sigma)
            * (np.linalg.norm(path_sigma) / opt.chi_n - 1)
        )
        sigma = float(np.clip(sigma, 1e-3, 1.0))
        h_sigma = float(
            np.linalg.norm(path_sigma)
            / np.sqrt(1 - (1 - opt.c_sigma) ** (2 * (generation + 1)))
            < (1.4 + 2 / (d + 1)) * opt.chi_n
        )
        path_c = (1 - opt.c_c) * path_c + h_sigma * np.sqrt(
            opt.c_c * (2 - opt.c_c) * opt.mu_eff
        ) * mean_step
        rank_mu = sum(w * np.outer(s, s) for w, s in zip(opt.weights, steps))
        covariance = (
            (1 - opt.c_1 - opt.c_mu) * covariance
            + opt.c_1 * np.outer(path_c, path_c)
            + opt.c_mu * rank_mu
        )
        covariance = 0.5 * (covariance + covariance.T)
        mean = np.clip(new_mean, -1.0, 1.0)
        generation += 1


def legacy_bo(opt, budget):
    num_initial = min(opt.num_initial, budget)
    if num_initial > 0:
        points = opt.rng.uniform(-1.0, 1.0, size=(num_initial, opt.dimension))
        rewards = eval_batch(opt.environment, points)
        opt._x.extend(points)
        opt._y.extend(rewards.tolist())
    for _ in range(budget - num_initial):
        x_train, y_train = opt._training_set()
        gp = GaussianProcess().fit(x_train, y_train)
        incumbent_point = opt._x[int(np.argmax(opt._y))]
        candidates = opt._candidates(np.asarray(incumbent_point))
        mean, std = gp.predict(candidates)
        acquisition = expected_improvement(mean, std, float(np.max(opt._y)))
        chosen = candidates[int(np.argmax(acquisition))]
        reward = float(eval_batch(opt.environment, chosen[None, :])[0])
        opt._x.append(chosen)
        opt._y.append(reward)


def legacy_mace(opt, budget):
    num_initial = min(opt.num_initial, budget)
    if num_initial > 0:
        points = opt.rng.uniform(-1.0, 1.0, size=(num_initial, opt.dimension))
        rewards = eval_batch(opt.environment, points)
        opt._x.extend(points)
        opt._y.extend(rewards.tolist())
    remaining = budget - num_initial
    while remaining > 0:
        x_train, y_train = opt._training_set()
        gp = GaussianProcess().fit(x_train, y_train)
        incumbent = np.asarray(opt._x[int(np.argmax(opt._y))])
        uniform = opt.rng.uniform(
            -1.0, 1.0, size=(opt.candidate_pool // 2, opt.dimension)
        )
        local = incumbent + 0.2 * opt.rng.standard_normal(
            (opt.candidate_pool - len(uniform), opt.dimension)
        )
        candidates = np.clip(np.vstack([uniform, local]), -1.0, 1.0)
        mean, std = gp.predict(candidates)
        best = float(np.max(opt._y))
        acquisitions = np.column_stack(
            [
                expected_improvement(mean, std, best),
                probability_of_improvement(mean, std, best),
                upper_confidence_bound(mean, std),
            ]
        )
        front = pareto_front_indices(acquisitions)
        batch_size = min(opt.batch_size, remaining)
        if len(front) >= batch_size:
            chosen = opt.rng.choice(front, size=batch_size, replace=False)
        else:
            extra = opt.rng.choice(
                len(candidates), size=batch_size - len(front), replace=False
            )
            chosen = np.concatenate([front, extra])
        batch = candidates[chosen]
        rewards = eval_batch(opt.environment, batch)
        opt._x.extend(batch)
        opt._y.extend(rewards.tolist())
        remaining -= len(batch)


LEGACY_LOOPS = {
    "random": (RandomSearch, legacy_random),
    "es": (EvolutionStrategy, legacy_es),
    "bo": (BayesianOptimization, legacy_bo),
    "mace": (MACE, legacy_mace),
}


class TestBlackBoxParity:
    """Driver-driven ask/tell == pre-redesign run(budget), bit for bit."""

    @pytest.mark.parametrize("method", sorted(LEGACY_LOOPS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_learning_curves_bit_identical(self, method, seed):
        cls, legacy = LEGACY_LOOPS[method]
        budget = 30

        reference_env = make_env()
        legacy(cls(reference_env, seed=seed), budget)

        driver_env = make_env()
        result = OptimizationDriver(
            cls(driver_env, seed=seed), budget=budget
        ).run()

        assert np.array_equal(reference_env.rewards(), driver_env.rewards())
        assert result.num_evaluations == budget
        assert result.best_reward == reference_env.best_reward
        assert sum(result.step_evaluations) == budget

    def test_run_shim_removed(self):
        # The pre-ask/tell Strategy.run(budget) shim is gone; the error must
        # point straight at the replacement.
        with pytest.raises(RuntimeError, match="OptimizationDriver"):
            EvolutionStrategy(make_env(), seed=3).run(25)


def tiny_rl_config(warmup=4):
    return AgentConfig(
        hidden_dim=8,
        num_gcn_layers=2,
        batch_size=8,
        warmup=warmup,
        updates_per_episode=1,
    )


def legacy_rl(agent, episodes):
    """The pre-redesign ``GCNRLAgent.train`` loop: one simulation per episode."""
    for _ in range(episodes):
        states, _ = agent.environment.observe()
        warmup = agent._episode < agent.config.warmup
        actions = agent.random_actions() if warmup else agent.act(explore=True)
        result = agent.environment.step(actions)
        agent.replay_buffer.add(states, actions, result.reward)
        agent._update_baseline(result.reward)
        critic_loss = float("nan")
        if not warmup:
            for _ in range(agent.config.updates_per_episode):
                critic_loss = agent._update_networks()
            agent.noise.step()
        agent.training_log.append(
            TrainingRecord(
                episode=agent._episode,
                reward=result.reward,
                best_reward=agent.environment.best_reward,
                critic_loss=critic_loss,
                exploration_sigma=agent.noise.sigma,
                warmup=warmup,
            )
        )
        agent._episode += 1


class TestRLParity:
    """The RL strategy reproduces the per-episode loop episode for episode."""

    def test_rl_strategy_matches_agent_train(self):
        steps = 10
        env_a = make_rl_env()
        agent_a = GCNRLAgent(env_a, config=tiny_rl_config(), seed=0)
        legacy_rl(agent_a, steps)

        env_b = make_rl_env()
        agent_b = GCNRLAgent(env_b, config=tiny_rl_config(), seed=0)
        strategy = GCNRLStrategy.from_agent(agent_b)
        OptimizationDriver(strategy, budget=steps).run()

        assert np.array_equal(env_a.rewards(), env_b.rewards())
        assert len(agent_b.training_log) == steps
        for rec_a, rec_b in zip(agent_a.training_log, agent_b.training_log):
            assert rec_a.episode == rec_b.episode
            assert rec_a.reward == rec_b.reward
            assert rec_a.best_reward == rec_b.best_reward
            assert rec_a.warmup == rec_b.warmup
        for name, value in agent_a.actor.state_dict().items():
            assert np.array_equal(value, agent_b.actor.state_dict()[name]), name
        # The RNG streams stayed in lockstep.
        assert (
            agent_a.rng.bit_generator.state == agent_b.rng.bit_generator.state
        )

    def test_warmup_is_one_batched_ask(self):
        env = make_rl_env()
        agent = GCNRLAgent(env, config=tiny_rl_config(warmup=5), seed=0)
        result = OptimizationDriver(GCNRLStrategy.from_agent(agent), budget=8).run()
        assert result.step_evaluations == [5, 1, 1, 1]


def make_rl_env():
    return QuadraticEnvironment(get_circuit("two_tia"))


class TestCheckpointResume:
    """Kill at step k, resume from the store, finish bit-identically."""

    @pytest.mark.parametrize(
        "method, budget, kill_at",
        [("es", 36, 1), ("bo", 24, 3), ("mace", 24, 2)],
    )
    def test_blackbox_kill_resume_bit_identical(self, method, budget, kill_at):
        key = make_run_key(method, "two_tia", "180nm", budget, 0)

        uninterrupted_env = make_env()
        reference = OptimizationDriver(
            get_strategy(method, uninterrupted_env, seed=0), budget=budget
        ).run()

        store = MemoryStore()
        killed_env = make_env()
        killed = OptimizationDriver(
            get_strategy(method, killed_env, seed=0),
            budget=budget,
            store=store,
            run_key=key,
            checkpoint_every=1,
        )
        partial = killed.run(max_steps=kill_at)
        assert not killed.finished
        assert partial.num_evaluations < budget
        assert store.get_checkpoint(key) is not None

        # A *fresh* strategy + environment resumes from the stored state.
        resumed_env = make_env()
        resumed_driver = OptimizationDriver(
            get_strategy(method, resumed_env, seed=0),
            budget=budget,
            store=store,
            run_key=key,
        )
        resumed = resumed_driver.run()
        assert resumed_driver.finished and resumed_driver.resumed
        assert np.array_equal(resumed_env.rewards(), uninterrupted_env.rewards())
        assert resumed.best_reward == reference.best_reward
        assert resumed.step_evaluations == reference.step_evaluations
        assert resumed.num_evaluations == budget

    def test_rl_kill_resume_bit_identical(self):
        budget = 10
        key = make_run_key("gcn_rl", "two_tia", "180nm", budget, 0)

        reference_env = make_rl_env()
        reference_agent = GCNRLAgent(reference_env, config=tiny_rl_config(), seed=0)
        OptimizationDriver(
            GCNRLStrategy.from_agent(reference_agent), budget=budget
        ).run()

        store = MemoryStore()
        killed_env = make_rl_env()
        killed_agent = GCNRLAgent(killed_env, config=tiny_rl_config(), seed=0)
        OptimizationDriver(
            GCNRLStrategy.from_agent(killed_agent),
            budget=budget,
            store=store,
            run_key=key,
            checkpoint_every=1,
        ).run(max_steps=4)

        resumed_env = make_rl_env()
        resumed_agent = GCNRLAgent(resumed_env, config=tiny_rl_config(), seed=0)
        driver = OptimizationDriver(
            GCNRLStrategy.from_agent(resumed_agent),
            budget=budget,
            store=store,
            run_key=key,
        )
        driver.run()
        assert driver.resumed
        assert np.array_equal(resumed_env.rewards(), reference_env.rewards())
        for name, value in reference_agent.critic.state_dict().items():
            assert np.array_equal(value, resumed_agent.critic.state_dict()[name])

    def test_resume_across_sqlite_store_reopen(self, tmp_path):
        budget = 24
        key = make_run_key("es", "two_tia", "180nm", budget, 7)
        reference_env = make_env()
        OptimizationDriver(
            EvolutionStrategy(reference_env, seed=7), budget=budget
        ).run()

        store = SqliteStore(tmp_path / "store")
        killed_env = make_env()
        OptimizationDriver(
            EvolutionStrategy(killed_env, seed=7),
            budget=budget,
            store=store,
            run_key=key,
            checkpoint_every=1,
        ).run(max_steps=1)
        store.close()

        reopened = SqliteStore(tmp_path / "store")
        resumed_env = make_env()
        driver = OptimizationDriver(
            EvolutionStrategy(resumed_env, seed=7),
            budget=budget,
            store=reopened,
            run_key=key,
        )
        driver.run()
        assert driver.resumed
        assert np.array_equal(resumed_env.rewards(), reference_env.rewards())
        reopened.close()

    def test_paused_driver_continues_in_place(self):
        store = MemoryStore()
        key = make_run_key("es", "two_tia", "180nm", 24, 0)
        env = make_env()
        driver = OptimizationDriver(
            EvolutionStrategy(env, seed=0),
            budget=24,
            store=store,
            run_key=key,
        )
        driver.run(max_steps=1)
        assert not driver.finished
        result = driver.run()
        assert driver.finished
        assert result.num_evaluations == 24

    def test_finished_run_leaves_no_stale_midrun_checkpoint(self):
        # A periodically-checkpointed run that completes must not leave a
        # *mid-run* blob behind: a later driver on the same store+key would
        # silently resume from it and re-simulate the final segment.  The
        # driver overwrites it with the completed state instead, so the
        # "resume" is an instant no-op with an identical result.
        store = MemoryStore()
        key = make_run_key("es", "two_tia", "180nm", 24, 0)
        env = make_env()
        OptimizationDriver(
            EvolutionStrategy(env, seed=0),
            budget=24,
            store=store,
            run_key=key,
            checkpoint_every=1,
        ).run()

        again_env = make_env()
        simulated = []
        original = again_env.evaluate_normalized_batch
        again_env.evaluate_normalized_batch = lambda vectors: (
            simulated.append(len(vectors)) or original(vectors)
        )
        again = OptimizationDriver(
            EvolutionStrategy(again_env, seed=0),
            budget=24,
            store=store,
            run_key=key,
        )
        result = again.run()
        assert again.finished and again.resumed
        assert simulated == []  # nothing re-simulated
        assert result.num_evaluations == 24  # restored, not recomputed
        assert np.array_equal(np.asarray(result.rewards), env.rewards())

    def test_no_resume_when_disabled(self):
        store = MemoryStore()
        key = make_run_key("es", "two_tia", "180nm", 24, 0)
        env = make_env()
        OptimizationDriver(
            EvolutionStrategy(env, seed=0),
            budget=24,
            store=store,
            run_key=key,
            checkpoint_every=1,
        ).run(max_steps=1)
        fresh_env = make_env()
        driver = OptimizationDriver(
            EvolutionStrategy(fresh_env, seed=0),
            budget=24,
            store=store,
            run_key=key,
            resume=False,
        )
        driver.run()
        assert not driver.resumed


class TestDriverMechanics:
    def test_callbacks_receive_step_telemetry(self):
        events = []
        env = make_env()
        OptimizationDriver(
            EvolutionStrategy(env, seed=0),
            budget=24,
            callbacks=[events.append],
        ).run()
        assert [e.step for e in events] == list(range(1, len(events) + 1))
        assert events[-1].evaluated == 24
        assert all(isinstance(e, DriverStep) for e in events)
        assert events[-1].wall_time_s >= events[0].wall_time_s

    def test_callback_early_stop(self):
        env = make_env()
        driver = OptimizationDriver(
            EvolutionStrategy(env, seed=0),
            budget=100,
            callbacks=[lambda event: event.step >= 2],
        )
        result = driver.run()
        assert driver.finished
        assert len(result.step_evaluations) == 2

    def test_budget_truncates_overask(self):
        class Greedy(Strategy):
            name = "greedy_test"

            def ask(self):
                return self.vector_proposals(
                    self.rng.uniform(-1, 1, size=(50, self.dimension))
                )

            def tell(self, proposals, results):
                pass

        env = make_env()
        result = OptimizationDriver(Greedy(env, seed=0), budget=7).run()
        assert result.num_evaluations == 7

    def test_mismatched_environment_rejected(self):
        env_a, env_b = make_env(), make_env()
        with pytest.raises(ValueError, match="own environment"):
            OptimizationDriver(EvolutionStrategy(env_a, seed=0), env_b, budget=5)

    def test_empty_ask_raises(self):
        class Silent(Strategy):
            name = "silent_test"

            def ask(self):
                return []

            def tell(self, proposals, results):
                pass

        with pytest.raises(RuntimeError, match="proposed nothing"):
            OptimizationDriver(Silent(make_env(), seed=0), budget=5).run()

    def test_proposal_requires_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Proposal().kind()
        with pytest.raises(ValueError):
            Proposal(vector=np.zeros(3), actions=np.zeros((2, 2))).kind()

    def test_standalone_ask_needs_remaining(self):
        strategy = RandomSearch(make_env(), seed=0)
        with pytest.raises(RuntimeError, match="remaining"):
            strategy.ask()
        strategy.remaining = 3
        assert len(strategy.ask()) == 3


class TestRegistry:
    def test_all_paper_methods_registered(self):
        assert set(list_optimizers()) == {
            "human",
            "random",
            "es",
            "bo",
            "mace",
            "gcn_rl",
            "ng_rl",
        }

    def test_unknown_method_suggests_closest(self):
        with pytest.raises(KeyError, match="did you mean 'gcn_rl'"):
            get_strategy("gcnrl", make_env())

    def test_unknown_kwargs_rejected_with_accepted_fields(self):
        with pytest.raises(TypeError, match="population_size"):
            get_strategy("es", make_env(), pop_size=12)

    def test_rl_config_field_accepted(self):
        config = tiny_rl_config()
        config.use_gcn = False
        strategy = get_strategy("ng_rl", make_env(), seed=0, config=config)
        assert strategy.agent.config.hidden_dim == 8
        assert strategy.agent.config.use_gcn is False

    def test_config_fields_introspection(self):
        fields = strategy_config_fields(EvolutionStrategy)
        assert fields == ["population_size", "initial_sigma"]

    def test_duplicate_registration_rejected(self):
        class Impostor(Strategy):
            name = "es"

            def ask(self):
                return []

            def tell(self, proposals, results):
                pass

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Impostor)


class TestResultFields:
    def test_wall_time_and_step_evaluations_round_trip(self):
        result = OptimizationResult(
            method="es",
            best_reward=1.0,
            best_metrics={"gain": 2.0},
            best_sizing={"m1": {"w": 1e-6}},
            rewards=[0.5, 1.0],
            num_evaluations=2,
            wall_time_s=1.25,
            step_evaluations=[1, 1],
        )
        data = result.to_dict()
        assert data["wall_time_s"] == 1.25
        assert data["step_evaluations"] == [1, 1]
        back = OptimizationResult.from_dict(data)
        assert back.wall_time_s == 1.25
        assert back.step_evaluations == [1, 1]
