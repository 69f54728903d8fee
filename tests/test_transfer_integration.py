"""Integration tests: transfer fine-tunes as campaign cells, end to end.

These tests exercise the same code paths as the transfer benchmarks but with
very small budgets, so regressions in the experiment harness are caught by
the fast test suite rather than only by the benchmark run.
"""

import pickle
import sqlite3

import numpy as np
import pytest

from repro.eval.vectorized import VectorizedEvaluator
from repro.experiments import (
    ExperimentSettings,
    OptimizationDriver,
    aggregate,
    build_environment,
    clear_run_cache,
    run_method,
    table4_technology_transfer,
    technology_transfer_experiment,
    topology_transfer_experiment,
)
from repro.experiments import runner as runner_module
from repro.experiments import transfer
from repro.experiments.runner import default_agent_config
from repro.rl import GCNRLAgent, GCNRLStrategy
from repro.store import MemoryStore, RunRequest, SqliteStore


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
def _clean_run_cache():
    clear_run_cache()
    yield
    clear_run_cache()


def record_driver_runs(monkeypatch):
    """The run key of every driver that ``run_method`` runs, in order."""
    keys = []

    class RecordingDriver(OptimizationDriver):
        def run(self, *args, **kwargs):
            keys.append(self.run_key)
            return super().run(*args, **kwargs)

    monkeypatch.setattr(runner_module, "OptimizationDriver", RecordingDriver)
    return keys


def rendered_table4(settings, directory):
    with SqliteStore(directory) as store:
        return table4_technology_transfer(settings, store=store).render()


class TestTransferUtilities:
    def test_weights_load_into_fresh_agent(self):
        """The stored weights are the run's final weights, loadable anywhere."""
        settings, steps = tiny_settings(), 8
        store = MemoryStore()
        run_method("gcn_rl", "two_tia", steps=steps, settings=settings, store=store)
        key = RunRequest("gcn_rl", "two_tia", "180nm", steps, 0).key(settings)
        weights = pickle.loads(store.get_weights(key))

        config = default_agent_config(steps, settings, use_gcn=True)
        trained = GCNRLAgent(build_environment("two_tia", "180nm"), config, seed=0)
        OptimizationDriver(GCNRLStrategy.from_agent(trained), budget=steps).run()
        fresh = GCNRLAgent(build_environment("two_tia", "180nm"), config, seed=5)
        assert not np.array_equal(fresh.act(), trained.act())
        fresh.load_state_dict(weights)
        assert np.array_equal(fresh.act(), trained.act())

    def test_pretrain_and_technology_transfer(self):
        settings = tiny_settings()
        store = MemoryStore()
        parent = RunRequest("gcn_rl", "two_tia", "180nm", 5, 0)
        record = run_method(
            "gcn_rl", "two_tia", "45nm", steps=3, settings=settings, store=store,
            warmup=2, parent=parent,
        )
        assert (record.circuit, record.technology) == ("two_tia", "45nm")
        assert record.steps == 3 and len(record.rewards) == 3
        assert store.get(parent.key(settings)).steps == 5
        assert store.get_weights(parent.key(settings)) is not None

    def test_topology_transfer_requires_transferable_state(self):
        store = MemoryStore()
        parent = RunRequest("gcn_rl", "two_tia", "180nm", 2, 0)
        with pytest.raises(ValueError, match="transferable_state"):
            run_method(
                "gcn_rl", "three_tia", steps=2, settings=tiny_settings(),
                store=store, transferable_state=True, parent=parent,
            )
        assert len(store) == 0  # refused before the parent ran

    def test_topology_transfer_with_transferable_state(self):
        parent = RunRequest(
            "gcn_rl", "two_tia", "180nm", 3, 0, transferable_state=True
        )
        record = run_method(
            "gcn_rl", "three_tia", steps=3, settings=tiny_settings(),
            warmup=1, transferable_state=True, parent=parent,
        )
        assert record.circuit == "three_tia"
        assert np.isfinite(record.best_reward)

    def test_pretraining_is_one_stored_parent_run(self, monkeypatch):
        settings = tiny_settings()
        settings.seeds = 2
        runs = record_driver_runs(monkeypatch)
        technology_transfer_experiment("two_tia", settings)
        parents = [key for key in runs if key.technology == "180nm"]
        assert len(parents) == 1 and parents[0].steps == settings.pretrain_steps
        assert len(runs) == 1 + 2 * settings.seeds


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

    def test_warmup_covering_the_budget_still_uses_transferred_weights(self):
        """A fine-tune's warm-up is clamped so its last episode is learned."""
        settings = tiny_settings()
        settings.pretrain_steps = 8  # past its warm-up, so the weights moved
        settings.transfer_warmup = 20  # more than the whole budget
        result = technology_transfer_experiment("two_tia", settings)
        transferred = result.transfer["45nm"][0].rewards
        scratch = result.no_transfer["45nm"][0].rewards
        assert transferred[:-1] == scratch[:-1]
        assert transferred != scratch

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
            "REPRO_WARMUP_FRACTION",
            "REPRO_EVAL_BACKEND",
            "REPRO_EVAL_CACHE",
        ):
            monkeypatch.delenv(name, raising=False)
        cells_seen = []
        monkeypatch.setattr(
            transfer, "run_grid", lambda *args, cells: cells_seen.extend(cells) or []
        )
        settings = ExperimentSettings()
        technology_transfer_experiment("two_tia", settings)
        first = cells_seen[0]  # 250nm, seed 0, transferred from 180nm
        assert (first.technology, first.seed, first.parent.technology) == (
            "250nm", 0, "180nm",
        )
        assert first.key(settings).key_id() == "edeb3a4e5331e61c59aecd20c0762213"

    def test_fine_tunes_do_not_alias_across_pretrain_steps(self):
        settings = tiny_settings()
        settings.transfer_steps = 5
        settings.transfer_targets = ["250nm"]
        settings.pretrain_steps = 6
        six = technology_transfer_experiment("two_tia", settings).transfer["250nm"][0]
        settings.pretrain_steps = 12
        twelve = technology_transfer_experiment("two_tia", settings).transfer["250nm"][0]
        assert twelve is not six
        clear_run_cache()
        fresh = technology_transfer_experiment("two_tia", settings).transfer["250nm"][0]
        assert twelve.rewards == fresh.rewards

    def test_vectorized_settings_reach_key_and_environment(self, monkeypatch):
        settings = tiny_settings()
        settings.eval_backend = "vectorized"
        parent = RunRequest("gcn_rl", "two_tia", "180nm", 5, 0)
        key = RunRequest("gcn_rl", "two_tia", "45nm", 4, 0, parent=parent).key(settings)
        assert key.evaluator == ("evaluator", "vectorized", None, 0)
        evaluators = []
        real_build = runner_module.build_environment

        def recording_build(*args, **kwargs):
            environment = real_build(*args, **kwargs)
            evaluators.append(environment.evaluator)
            return environment

        monkeypatch.setattr(runner_module, "build_environment", recording_build)
        technology_transfer_experiment("two_tia", settings)
        # One pretraining environment and two fine-tunes (transfer, scratch),
        # all bound to the campaign worker's one shared evaluator.
        assert len(evaluators) == 3
        assert len({id(ev.shared) for ev in evaluators}) == 1
        assert isinstance(evaluators[0].shared, VectorizedEvaluator)


class Killed(BaseException):
    """Stands in for a kill: escapes the worker's retry loop."""


class TestTransferCampaign:
    """Table IV on a durable store: resume, reuse and growth."""

    def test_interrupted_after_pretraining_resumes_without_it(
        self, tmp_path, monkeypatch
    ):
        settings = tiny_settings()
        reference = rendered_table4(settings, tmp_path / "reference")

        def kill_first_fine_tune(self, *args, **kwargs):
            if self.run_key.technology != "180nm":
                raise Killed()
            return real_run(self, *args, **kwargs)

        real_run = OptimizationDriver.run
        monkeypatch.setattr(OptimizationDriver, "run", kill_first_fine_tune)
        with pytest.raises(Killed):
            rendered_table4(settings, tmp_path / "store")
        monkeypatch.setattr(OptimizationDriver, "run", real_run)
        with SqliteStore(tmp_path / "store") as store:
            (pretrained,) = store.keys()
            assert pretrained.technology == "180nm"
            assert store.get_weights(pretrained) is not None

        runs = record_driver_runs(monkeypatch)
        assert rendered_table4(settings, tmp_path / "store") == reference
        assert pretrained not in runs
        # The other circuit's pretraining and every fine-tune ran.
        assert len(runs) == 1 + 2 * 2 * len(settings.transfer_targets)

    def test_fine_tune_paused_mid_run_resumes_bit_identical(self, tmp_path):
        settings = tiny_settings()
        parent = RunRequest("gcn_rl", "two_tia", "180nm", 6, 0)
        cell = dict(
            circuit_name="two_tia", technology="45nm", steps=6, seed=0,
            settings=settings, warmup=2, parent=parent,
        )
        reference = run_method("gcn_rl", store=MemoryStore(), **cell)
        with SqliteStore(tmp_path / "store") as store:
            run_method("gcn_rl", "two_tia", steps=6, settings=settings, store=store)
            polls = []
            paused = run_method(
                "gcn_rl", store=store, checkpoint_every=1,
                pause_check=lambda: polls.append(None) or len(polls) > 2, **cell,
            )
            assert paused is None and len(store) == 1
        with SqliteStore(tmp_path / "store") as store:
            resumed = run_method("gcn_rl", store=store, **cell)
        # The checkpoint, not the parent's weights, set the resumed agent.
        assert resumed.rewards == reference.rewards
        assert resumed.best_metrics == reference.best_metrics

    def test_adding_a_node_runs_only_its_fine_tunes(self, tmp_path, monkeypatch):
        settings = tiny_settings()
        settings.transfer_targets = ["250nm"]
        rendered_table4(settings, tmp_path / "store")
        settings.transfer_targets = ["250nm", "45nm"]
        runs = record_driver_runs(monkeypatch)
        rendered_table4(settings, tmp_path / "store")
        assert {key.technology for key in runs} == {"45nm"}
        assert len(runs) == 2 * 2 * settings.seeds  # two circuits, two arms

    def test_parent_stored_without_weights_is_recomputed_once(
        self, tmp_path, monkeypatch
    ):
        settings = tiny_settings()
        settings.seeds = 2
        parent = RunRequest("gcn_rl", "two_tia", "180nm", settings.pretrain_steps, 0)
        with SqliteStore(tmp_path / "store") as store:
            run_method(
                "gcn_rl", "two_tia", steps=settings.pretrain_steps,
                settings=settings, store=store,
            )
            filed = store.get(parent.key(settings)).to_dict()
        # Code that stored no weights filed the same record without them.
        conn = sqlite3.connect(tmp_path / "store" / "runs.sqlite")
        conn.execute("DELETE FROM weights")
        conn.commit()
        conn.close()

        runs = record_driver_runs(monkeypatch)
        with SqliteStore(tmp_path / "store") as store:
            technology_transfer_experiment("two_tia", settings, store=store)
            refiled = store.get(parent.key(settings)).to_dict()
            assert store.get_weights(parent.key(settings)) is not None
        assert runs.count(parent.key(settings)) == 1
        filed.pop("wall_time_s")
        refiled.pop("wall_time_s")
        assert refiled == filed
