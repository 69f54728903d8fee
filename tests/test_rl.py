"""Tests for the RL stack: noise, replay buffer, actor/critic, DDPG agent."""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.circuits.components import TYPE_ORDER
from repro.env import SizingEnvironment
from repro.env.environment import StepResult
from repro.experiments import OptimizationDriver, build_environment
from repro.rl import (
    AgentConfig,
    GCNActor,
    GCNCritic,
    GCNRLAgent,
    GCNRLStrategy,
    ReplayBuffer,
    Transition,
    TransitionBatch,
    TruncatedGaussianNoise,
)


class TestNoise:
    def test_sigma_decays_towards_floor(self):
        noise = TruncatedGaussianNoise(initial_sigma=1.0, final_sigma=0.1, decay=0.5)
        for _ in range(20):
            noise.step()
        assert noise.sigma == pytest.approx(0.1)

    def test_reset_restores_initial_sigma(self):
        noise = TruncatedGaussianNoise(initial_sigma=0.4)
        noise.step()
        noise.reset()
        assert noise.sigma == 0.4

    def test_perturbed_actions_stay_in_bounds(self, rng):
        noise = TruncatedGaussianNoise(initial_sigma=5.0)
        actions = np.zeros((10, 3))
        noisy = noise.perturb(actions, rng)
        assert np.all(noisy >= -1.0) and np.all(noisy <= 1.0)

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            TruncatedGaussianNoise(decay=1.5)


class TestReplayBuffer:
    def test_add_and_sample(self, rng):
        buffer = ReplayBuffer(capacity=10)
        for i in range(5):
            buffer.add(np.zeros((3, 4)), np.zeros((3, 3)), float(i))
        assert len(buffer) == 5
        batch = buffer.sample(8, rng)
        assert len(batch) == 8

    def test_capacity_overwrites_oldest(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(5):
            buffer.add(np.zeros((1, 1)), np.zeros((1, 1)), float(i))
        assert len(buffer) == 3
        assert set(buffer.rewards()) == {2.0, 3.0, 4.0}

    def test_sample_empty_raises(self, rng):
        with pytest.raises(ValueError):
            ReplayBuffer().sample(1, rng)

    def test_clear(self):
        buffer = ReplayBuffer()
        buffer.add(np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
        buffer.clear()
        assert len(buffer) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_stored_arrays_are_copies(self):
        buffer = ReplayBuffer()
        states = np.zeros((2, 2))
        buffer.add(states, np.zeros((2, 1)), 0.0)
        states[0, 0] = 99.0
        assert buffer.sample(1, np.random.default_rng(0))[0].states[0, 0] == 0.0

    def test_sample_returns_stacked_arrays(self, rng):
        buffer = ReplayBuffer(capacity=16)
        for i in range(6):
            buffer.add(np.full((3, 4), float(i)), np.full((3, 2), float(i)), float(i))
        batch = buffer.sample(5, rng)
        assert isinstance(batch, TransitionBatch)
        assert batch.states.shape == (5, 3, 4)
        assert batch.actions.shape == (5, 3, 2)
        assert batch.rewards.shape == (5,)
        # Rows are consistent: states/actions/rewards of one draw line up.
        for b in range(5):
            assert np.all(batch.states[b] == batch.rewards[b])
            assert np.all(batch.actions[b] == batch.rewards[b])

    def test_batch_iterates_as_transitions(self, rng):
        buffer = ReplayBuffer()
        for i in range(3):
            buffer.add(np.full((2, 2), float(i)), np.full((2, 1), float(i)), float(i))
        batch = buffer.sample(4, rng)
        transitions = list(batch)
        assert len(transitions) == 4
        for index, transition in enumerate(transitions):
            assert isinstance(transition, Transition)
            assert transition.reward == batch.rewards[index]
            assert np.array_equal(transition.states, batch.states[index])

    def test_sampled_batch_is_a_copy_of_storage(self, rng):
        buffer = ReplayBuffer()
        buffer.add(np.zeros((2, 2)), np.zeros((2, 1)), 0.0)
        batch = buffer.sample(2, rng)
        batch.states[0, 0, 0] = 123.0
        assert buffer.sample(2, rng).states[0, 0, 0] == 0.0

    def test_add_rejects_shape_mismatch(self):
        buffer = ReplayBuffer()
        buffer.add(np.zeros((3, 4)), np.zeros((3, 2)), 0.0)
        with pytest.raises(ValueError):
            buffer.add(np.zeros((5, 4)), np.zeros((5, 2)), 0.0)

    def test_clear_allows_new_topology_shape(self):
        buffer = ReplayBuffer()
        buffer.add(np.zeros((3, 4)), np.zeros((3, 2)), 0.0)
        buffer.clear()
        buffer.add(np.zeros((7, 4)), np.zeros((7, 2)), 1.0)
        assert len(buffer) == 1
        assert buffer.rewards().tolist() == [1.0]


def small_graph_inputs(seed=0, n=5, state_dim=7):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, state_dim))
    adjacency = np.eye(n)
    adjacency[0, 1] = adjacency[1, 0] = 0.5
    type_indices = [0, 1, 2, 3, 0]
    return states, adjacency, type_indices


class TestActorCritic:
    def test_actor_output_shape_and_range(self):
        states, adjacency, types = small_graph_inputs()
        actor = GCNActor(state_dim=7, hidden_dim=16, num_gcn_layers=2)
        actions = actor.forward(states, adjacency, types)
        assert actions.shape == (5, 3)
        assert np.all(np.abs(actions) <= 1.0)

    def test_critic_returns_scalar(self):
        states, adjacency, types = small_graph_inputs()
        critic = GCNCritic(state_dim=7, hidden_dim=16, num_gcn_layers=2)
        q = critic.forward(states, np.zeros((5, 3)), adjacency, types)
        assert isinstance(q, float)

    def test_critic_action_gradient_matches_numeric(self):
        states, adjacency, types = small_graph_inputs(seed=3)
        critic = GCNCritic(state_dim=7, hidden_dim=12, num_gcn_layers=2)
        actions = np.random.default_rng(4).uniform(-0.5, 0.5, size=(5, 3))

        critic.forward(states, actions, adjacency, types)
        _, grad_actions = critic.backward(1.0)

        eps = 1e-6
        numeric = np.zeros_like(actions)
        for i in range(actions.shape[0]):
            for j in range(actions.shape[1]):
                up, down = actions.copy(), actions.copy()
                up[i, j] += eps
                down[i, j] -= eps
                q_up = critic.forward(states, up, adjacency, types)
                q_down = critic.forward(states, down, adjacency, types)
                numeric[i, j] = (q_up - q_down) / (2 * eps)
        assert np.allclose(grad_actions, numeric, atol=1e-5)

    def test_actor_parameter_gradient_matches_numeric(self):
        states, adjacency, types = small_graph_inputs(seed=5)
        actor = GCNActor(state_dim=7, hidden_dim=10, num_gcn_layers=1)
        grad_out = np.ones((5, 3))

        actor.zero_grad()
        actor.forward(states, adjacency, types)
        actor.backward(grad_out)
        analytic = actor.input_layer.weight.grad.copy()

        def objective():
            return float(np.sum(actor.forward(states, adjacency, types)))

        eps = 1e-6
        weight = actor.input_layer.weight.value
        numeric = np.zeros_like(weight)
        for i in range(weight.shape[0]):
            for j in range(weight.shape[1]):
                old = weight[i, j]
                weight[i, j] = old + eps
                up = objective()
                weight[i, j] = old - eps
                down = objective()
                weight[i, j] = old
                numeric[i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_ng_variant_ignores_adjacency(self):
        states, adjacency, types = small_graph_inputs()
        actor = GCNActor(state_dim=7, hidden_dim=16, num_gcn_layers=2, use_gcn=False)
        with_graph = actor.forward(states, adjacency, types)
        without_graph = actor.forward(states, np.eye(5), types)
        assert np.allclose(with_graph, without_graph)

    def test_gcn_variant_uses_adjacency(self):
        states, adjacency, types = small_graph_inputs()
        actor = GCNActor(state_dim=7, hidden_dim=16, num_gcn_layers=2, use_gcn=True)
        dense = np.full((5, 5), 0.2)
        assert not np.allclose(
            actor.forward(states, adjacency, types),
            actor.forward(states, dense, types),
        )

    def test_state_dict_transfers_between_instances(self):
        states, adjacency, types = small_graph_inputs()
        actor_a = GCNActor(7, 16, 2, rng=np.random.default_rng(1))
        actor_b = GCNActor(7, 16, 2, rng=np.random.default_rng(2))
        actor_b.load_state_dict(actor_a.state_dict())
        assert np.allclose(
            actor_a.forward(states, adjacency, types),
            actor_b.forward(states, adjacency, types),
        )


class TestBatchedActorCritic:
    """Stacked (B, n, F) actor/critic paths against per-sample ground truth."""

    def test_actor_batched_forward_matches_per_sample(self):
        states, adjacency, types = small_graph_inputs(seed=21)
        actor = GCNActor(state_dim=7, hidden_dim=12, num_gcn_layers=2)
        stacked = np.stack([states, states * 0.5, states * -0.25])
        batched = actor.forward(stacked, adjacency, types).copy()
        assert batched.shape == (3, 5, 3)
        for b in range(3):
            per_sample = actor.forward(stacked[b], adjacency, types)
            assert np.allclose(batched[b], per_sample, atol=0, rtol=0)

    def test_critic_batched_forward_matches_per_sample(self):
        states, adjacency, types = small_graph_inputs(seed=22)
        critic = GCNCritic(state_dim=7, hidden_dim=12, num_gcn_layers=2)
        rng = np.random.default_rng(23)
        stacked_states = np.stack([states] * 4)
        stacked_actions = rng.uniform(-1, 1, size=(4, 5, 3))
        batched = critic.forward(stacked_states, stacked_actions, adjacency, types)
        assert batched.shape == (4,)
        for b in range(4):
            q = critic.forward(stacked_states[b], stacked_actions[b], adjacency, types)
            assert batched[b] == pytest.approx(q, abs=1e-12)

    def test_critic_batched_action_gradient_matches_numeric(self):
        states, adjacency, types = small_graph_inputs(seed=24)
        critic = GCNCritic(state_dim=7, hidden_dim=10, num_gcn_layers=2)
        rng = np.random.default_rng(25)
        stacked_states = np.stack([states] * 3)
        actions = rng.uniform(-0.5, 0.5, size=(3, 5, 3))
        grad_q = np.array([0.7, -1.3, 0.4])

        critic.forward(stacked_states, actions, adjacency, types)
        _, grad_actions = critic.backward(grad_q)

        eps = 1e-6
        numeric = np.zeros_like(actions)
        for b in range(3):
            for i in range(5):
                for j in range(3):
                    up, down = actions.copy(), actions.copy()
                    up[b, i, j] += eps
                    down[b, i, j] -= eps
                    q_up = critic.forward(stacked_states, up, adjacency, types)
                    q_down = critic.forward(stacked_states, down, adjacency, types)
                    numeric[b, i, j] = grad_q @ (q_up - q_down) / (2 * eps)
        assert np.allclose(grad_actions, numeric, atol=1e-5)

    def test_critic_batched_param_grads_match_per_sample_loop(self):
        """The batched backward equals 48 accumulated single-graph backwards."""
        states, adjacency, types = small_graph_inputs(seed=26)
        rng = np.random.default_rng(27)
        batched = GCNCritic(7, 12, 2, rng=np.random.default_rng(30))
        sequential = GCNCritic(7, 12, 2, rng=np.random.default_rng(30))
        stacked_states = np.stack([states] * 6)
        stacked_actions = rng.uniform(-1, 1, size=(6, 5, 3))
        grad_q = rng.standard_normal(6)

        batched.zero_grad()
        batched.forward(stacked_states, stacked_actions, adjacency, types)
        batched.backward(grad_q)
        sequential.zero_grad()
        for b in range(6):
            sequential.forward(stacked_states[b], stacked_actions[b], adjacency, types)
            sequential.backward(float(grad_q[b]))
        for got, expected in zip(batched.parameters(), sequential.parameters()):
            assert np.allclose(got.grad, expected.grad, atol=1e-12), got.name

    def test_actor_batched_param_grads_match_per_sample_loop(self):
        states, adjacency, types = small_graph_inputs(seed=28)
        batched = GCNActor(7, 12, 2, rng=np.random.default_rng(31))
        sequential = GCNActor(7, 12, 2, rng=np.random.default_rng(31))
        rng = np.random.default_rng(29)
        stacked = np.stack([states, states * 0.3, states * -1.0, states + 0.1])
        grad_actions = rng.standard_normal((4, 5, 3))

        batched.zero_grad()
        batched.forward(stacked, adjacency, types)
        batched.backward(grad_actions)
        sequential.zero_grad()
        for b in range(4):
            sequential.forward(stacked[b], adjacency, types)
            sequential.backward(grad_actions[b])
        for got, expected in zip(batched.parameters(), sequential.parameters()):
            assert np.allclose(got.grad, expected.grad, atol=1e-12), got.name


class SyntheticEnvironment(SizingEnvironment):
    """Environment whose reward is a simple analytic function of the actions.

    It reuses a real circuit's topology/state machinery but replaces the
    simulator call, so agent tests run in milliseconds.
    """

    def __init__(self, circuit, target=0.4):
        super().__init__(circuit)
        self.target = target

    def step(self, actions) -> StepResult:
        actions = np.asarray(actions, dtype=float)
        reward = 1.0 - float(np.mean((actions - self.target) ** 2))
        step_index = len(self.history)
        self._record(reward, {"synthetic": reward}, {})
        return StepResult(
            reward=reward, metrics={}, sizing={}, step_index=step_index
        )


@pytest.fixture()
def synthetic_env():
    return SyntheticEnvironment(get_circuit("two_tia"))


def drive(agent, episodes):
    """Train ``agent`` for ``episodes`` through the driver; its training log."""
    OptimizationDriver(GCNRLStrategy.from_agent(agent), budget=episodes).run()
    return agent.training_log


class TestAgent:
    def test_agent_training_improves_on_synthetic_task(self, synthetic_env):
        config = AgentConfig(
            warmup=15,
            num_gcn_layers=2,
            hidden_dim=24,
            batch_size=24,
            updates_per_episode=3,
        )
        agent = GCNRLAgent(synthetic_env, config, seed=0)
        log = drive(agent, 120)
        early = np.mean([r.reward for r in log[:15]])
        late = np.mean([r.reward for r in log[-15:]])
        assert late > early
        assert agent.best_reward > 0.8

    def test_warmup_episodes_are_random(self, synthetic_env):
        config = AgentConfig(warmup=5, num_gcn_layers=1, hidden_dim=8)
        agent = GCNRLAgent(synthetic_env, config, seed=1)
        log = drive(agent, 5)
        assert all(record.warmup for record in log)

    def test_act_produces_valid_actions(self, synthetic_env):
        agent = GCNRLAgent(
            synthetic_env, AgentConfig(num_gcn_layers=1, hidden_dim=8), seed=2
        )
        actions = agent.act(explore=True)
        assert actions.shape == (
            synthetic_env.num_components,
            synthetic_env.action_dim,
        )
        assert np.all(np.abs(actions) <= 1.0)

    def test_state_dict_roundtrip_preserves_policy(self, synthetic_env):
        agent = GCNRLAgent(
            synthetic_env, AgentConfig(num_gcn_layers=1, hidden_dim=8), seed=3
        )
        before = agent.act(explore=False)
        state = agent.state_dict()
        other = GCNRLAgent(
            SyntheticEnvironment(get_circuit("two_tia")),
            AgentConfig(num_gcn_layers=1, hidden_dim=8),
            seed=99,
        )
        other.load_state_dict(state)
        assert np.allclose(before, other.act(explore=False))

    def test_weights_refuse_another_state_width(self):
        config = AgentConfig(num_gcn_layers=1, hidden_dim=8)
        source = GCNRLAgent(SizingEnvironment(get_circuit("two_tia")), config)
        target = GCNRLAgent(SizingEnvironment(get_circuit("three_tia")), config)
        with pytest.raises(ValueError, match="shape mismatch"):
            target.load_state_dict(source.state_dict())

    def test_weights_load_across_transferable_topologies(self):
        config = AgentConfig(num_gcn_layers=1, hidden_dim=8)
        env_a = SizingEnvironment(get_circuit("two_tia"), transferable_state=True)
        env_b = SizingEnvironment(get_circuit("three_tia"), transferable_state=True)
        source = GCNRLAgent(env_a, config, seed=0)
        target = GCNRLAgent(env_b, config, seed=1)
        target.load_state_dict(source.state_dict())
        for name, value in source.actor.state_dict().items():
            assert np.array_equal(target.actor.state_dict()[name], value), name

    def test_training_on_real_environment_smoke(self):
        env = build_environment("two_tia", "180nm")
        config = AgentConfig(
            warmup=3, num_gcn_layers=2, hidden_dim=16, batch_size=8,
            updates_per_episode=1,
        )
        agent = GCNRLAgent(env, config, seed=0)
        log = drive(agent, 6)
        assert len(log) == 6
        assert np.isfinite(agent.best_reward)


def _max_weight_diff(agent_a: GCNRLAgent, agent_b: GCNRLAgent) -> float:
    state_a, state_b = agent_a.state_dict(), agent_b.state_dict()
    return max(
        float(np.max(np.abs(state_a[net][key] - state_b[net][key])))
        for net in state_a
        for key in state_a[net]
    )


class TestBatchedUpdateParity:
    """The batched critic update must reproduce the per-sample loop.

    ``_update_networks`` folds the replay batch into stacked matmuls whose
    reductions reorder floating point, so weights agree to reduction
    precision rather than bit-for-bit — the acceptance bar is 1e-9 over a
    full training run, the same bar the vectorized SPICE engine meets.
    """

    @staticmethod
    def _train_pair(make_env, episodes, **config_kwargs):
        config = AgentConfig(**config_kwargs)
        batched = GCNRLAgent(make_env(), config, seed=0)
        sequential = GCNRLAgent(make_env(), config, seed=0)
        sequential._update_networks = sequential._update_networks_loop
        log_batched = drive(batched, episodes)
        log_sequential = drive(sequential, episodes)
        return batched, sequential, log_batched, log_sequential

    def test_synthetic_training_run_parity(self):
        batched, sequential, log_b, log_s = self._train_pair(
            lambda: SyntheticEnvironment(get_circuit("two_tia")),
            episodes=30,
            warmup=8,
            num_gcn_layers=3,
            hidden_dim=32,
            batch_size=24,
            updates_per_episode=3,
        )
        assert _max_weight_diff(batched, sequential) <= 1e-9
        for rec_b, rec_s in zip(log_b, log_s):
            assert rec_b.reward == pytest.approx(rec_s.reward, abs=1e-12)
            assert rec_b.best_reward == pytest.approx(rec_s.best_reward, abs=1e-12)
            if np.isfinite(rec_s.critic_loss):
                assert rec_b.critic_loss == pytest.approx(rec_s.critic_loss, abs=1e-9)

    def test_figure5_style_training_run_parity(self):
        """Full paper-config training on the real simulator (Figure 5 protocol).

        Paper architecture (7 GCN layers, hidden 64, batch 48, 5 updates per
        episode) on the calibrated Two-TIA environment at the benchmark
        harness's scaled episode budget; weights and learning curves of the
        batched and per-sample paths must agree after every update of the
        run.
        """
        batched, sequential, log_b, log_s = self._train_pair(
            lambda: build_environment("two_tia", "180nm"),
            episodes=40,
            warmup=10,
        )
        assert _max_weight_diff(batched, sequential) <= 1e-9
        for rec_b, rec_s in zip(log_b, log_s):
            assert rec_b.reward == pytest.approx(rec_s.reward, abs=1e-12)
            assert rec_b.best_reward == pytest.approx(rec_s.best_reward, abs=1e-12)
        assert batched.best_reward == pytest.approx(sequential.best_reward, abs=1e-12)

    def test_rng_streams_identical_after_updates(self, synthetic_env):
        """Both update paths must consume the generator identically."""
        config = AgentConfig(warmup=3, num_gcn_layers=2, hidden_dim=16, batch_size=8)
        batched = GCNRLAgent(synthetic_env, config, seed=7)
        sequential = GCNRLAgent(
            SyntheticEnvironment(get_circuit("two_tia")), config, seed=7
        )
        sequential._update_networks = sequential._update_networks_loop
        drive(batched, 8)
        drive(sequential, 8)
        assert batched.rng.integers(0, 2**31) == sequential.rng.integers(0, 2**31)
