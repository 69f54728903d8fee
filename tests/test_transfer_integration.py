"""Integration tests: transfer utilities and end-to-end experiment flows.

These tests exercise the same code paths as the transfer benchmarks but with
very small budgets, so regressions in the experiment harness are caught by
the fast test suite rather than only by the benchmark run.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentSettings,
    aggregate,
    technology_transfer_experiment,
    topology_transfer_experiment,
)
from repro.eval.vectorized import VectorizedEvaluator
from repro.experiments import transfer
from repro.experiments.transfer import (
    clear_transfer_cache,
    pretrain_weights,
    transfer_run_key,
)
from repro.rl import (
    AgentConfig,
    GCNRLAgent,
    load_agent_weights,
    make_environment,
    pretrain_agent,
    save_agent_weights,
    transfer_to_technology,
    transfer_to_topology,
)


def tiny_settings():
    settings = ExperimentSettings()
    settings.steps = 4
    settings.seeds = 1
    settings.pretrain_steps = 5
    settings.transfer_steps = 4
    settings.transfer_warmup = 2
    settings.transfer_targets = ["45nm"]
    return settings


@pytest.fixture(autouse=True)
def _clean_transfer_cache():
    clear_transfer_cache()
    yield
    clear_transfer_cache()


class TestTransferUtilities:
    def test_save_and_load_agent_weights(self, tmp_path):
        env = make_environment("two_tia", "180nm")
        agent = GCNRLAgent(env, AgentConfig(num_gcn_layers=1, hidden_dim=8), seed=0)
        path = save_agent_weights(agent, tmp_path / "weights.pkl")
        assert path.exists()

        other = GCNRLAgent(
            make_environment("two_tia", "180nm"),
            AgentConfig(num_gcn_layers=1, hidden_dim=8),
            seed=5,
        )
        load_agent_weights(other, path)
        assert np.allclose(other.act(explore=False), agent.act(explore=False))

    def test_pretrain_and_technology_transfer(self):
        config = AgentConfig(
            num_gcn_layers=1, hidden_dim=8, warmup=2, batch_size=4,
            updates_per_episode=1,
        )
        agent = pretrain_agent("two_tia", "180nm", episodes=4, config=config, seed=0)
        assert len(agent.training_log) == 4
        transfer_to_technology(agent, "two_tia", "45nm", episodes=3)
        assert agent.environment.circuit.technology.name == "45nm"
        assert len(agent.environment.history) == 3

    def test_topology_transfer_requires_transferable_state(self):
        config = AgentConfig(num_gcn_layers=1, hidden_dim=8, warmup=1)
        agent = pretrain_agent("two_tia", episodes=2, config=config)
        with pytest.raises(ValueError):
            transfer_to_topology(agent, "three_tia", "180nm", episodes=2)

    def test_topology_transfer_with_transferable_state(self):
        config = AgentConfig(
            num_gcn_layers=1, hidden_dim=8, warmup=1, batch_size=4,
            updates_per_episode=1,
        )
        agent = pretrain_agent(
            "two_tia", episodes=3, config=config, transferable_state=True
        )
        transfer_to_topology(agent, "three_tia", "180nm", episodes=3)
        assert agent.environment.circuit.name == "three_tia"
        assert np.isfinite(agent.best_reward)

    def test_pretrain_weights_cached_per_configuration(self):
        settings = tiny_settings()
        first = pretrain_weights("two_tia", "180nm", settings)
        second = pretrain_weights("two_tia", "180nm", settings)
        assert first is second


class TestExperimentFlows:
    def test_technology_transfer_experiment_structure(self):
        settings = tiny_settings()
        result = technology_transfer_experiment("two_tia", settings)
        assert result.target_technologies == ["45nm"]
        assert len(result.transfer["45nm"]) == settings.seeds
        assert len(result.no_transfer["45nm"]) == settings.seeds
        agg = aggregate(result.transfer["45nm"])
        assert np.isfinite(agg.mean)

    def test_transfer_and_scratch_share_warmup_seeds(self):
        settings = tiny_settings()
        result = technology_transfer_experiment("two_tia", settings)
        transfer_rewards = result.transfer["45nm"][0].rewards
        scratch_rewards = result.no_transfer["45nm"][0].rewards
        warmup = settings.transfer_warmup
        assert transfer_rewards[:warmup] == pytest.approx(
            scratch_rewards[:warmup], rel=1e-9
        )

    def test_topology_transfer_experiment_structure(self):
        settings = tiny_settings()
        result = topology_transfer_experiment("two_tia", "three_tia", settings)
        assert len(result.gcn_transfer) == settings.seeds
        assert len(result.ng_transfer) == settings.seeds
        assert len(result.no_transfer) == settings.seeds
        for record in result.gcn_transfer:
            assert record.circuit == "three_tia"
            assert len(record.rewards) == settings.transfer_steps


class TestTransferKeys:
    def test_default_key_bytes_are_pinned(self, monkeypatch):
        """Stored fine-tunes are found by this digest."""
        for name in (
            "REPRO_PRETRAIN_STEPS",
            "REPRO_TRANSFER_STEPS",
            "REPRO_TRANSFER_WARMUP",
            "REPRO_EVAL_BACKEND",
            "REPRO_EVAL_CACHE",
        ):
            monkeypatch.delenv(name, raising=False)
        key = transfer_run_key(
            "two_tia", "250nm", ExperimentSettings(), 0, True, False, True,
            "transfer", source="180nm",
        )
        assert key.key_id() == "94ca923e7378dedc41cad90ab56534ad"

    def test_finetunes_do_not_alias_across_pretrain_steps(self):
        settings = tiny_settings()
        settings.transfer_steps = 5
        settings.transfer_targets = ["250nm"]
        settings.pretrain_steps = 6
        six = technology_transfer_experiment("two_tia", settings).transfer["250nm"][0]
        settings.pretrain_steps = 12
        twelve = technology_transfer_experiment("two_tia", settings).transfer["250nm"][0]
        assert twelve is not six
        clear_transfer_cache()
        fresh = technology_transfer_experiment("two_tia", settings).transfer["250nm"][0]
        assert twelve.rewards == fresh.rewards

    def test_vectorized_settings_reach_key_and_environment(self, monkeypatch):
        settings = tiny_settings()
        settings.eval_backend = "vectorized"
        key = transfer_run_key(
            "two_tia", "45nm", settings, 0, True, False, True, "transfer",
            source="180nm",
        )
        assert key.evaluator == ("evaluator", "vectorized", None, 0)
        evaluators = []
        real_build = transfer.build_environment

        def recording_build(*args, **kwargs):
            environment = real_build(*args, **kwargs)
            evaluators.append(environment.evaluator)
            return environment

        monkeypatch.setattr(transfer, "build_environment", recording_build)
        technology_transfer_experiment("two_tia", settings)
        # One pretraining environment and two fine-tunes (transfer, scratch).
        assert len(evaluators) == 3
        assert all(isinstance(ev, VectorizedEvaluator) for ev in evaluators)
