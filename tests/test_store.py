"""Tests for the run store subsystem (repro.store).

Covers RunRecord/RunKey serialization round-trips, the backend conformance
contract (the same semantics for Memory/Sqlite), persistence across reopen,
the refusal of JSONL-era store directories, the runner's store integration
(including the evaluator-leak and falsy-zero fixes), campaign expansion and
kill-and-resume, and the store CLI.
"""

import json
import sqlite3
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import DEFAULT_TTL
from repro.experiments import (
    ExperimentSettings,
    RunRecord,
    run_key_for,
    run_method,
    run_methods,
)
from repro.experiments import runner as runner_module
from repro.experiments.__main__ import main as cli_main
from repro.store import (
    Campaign,
    CampaignSpec,
    MemoryStore,
    RunKey,
    SqliteStore,
    STORE_BACKENDS,
    make_run_key,
    open_run_store,
)

PERSISTENT_BACKENDS = ("sqlite",)


def sample_key(seed=0, method="random", **overrides):
    return make_run_key(
        method,
        "two_tia",
        "180nm",
        5,
        seed,
        weight_overrides=overrides or None,
        evaluator_key=("evaluator", "local", None, 0),
        extra={"warmup": 3},
    )


def sample_record(seed=0, best=1.5):
    return RunRecord(
        method="random",
        circuit="two_tia",
        technology="180nm",
        seed=seed,
        steps=5,
        best_reward=np.float64(best),
        best_metrics={"gain": np.float64(123.4), "power": 1e-3},
        rewards=[np.float64(0.1), np.float64(best)],
        extra={"note": "unit-test"},
    )


def lease_rows(store):
    """Every lease row of a SQLite store, read through a fresh connection."""
    with sqlite3.connect(store.path) as conn:
        return conn.execute("SELECT key_id, owner FROM leases").fetchall()


@pytest.fixture(params=STORE_BACKENDS)
def store(request, tmp_path):
    st = open_run_store(request.param, tmp_path / "store")
    yield st
    st.close()


class TestRunRecordRoundTrip:
    def test_to_dict_is_json_serializable(self):
        text = json.dumps(sample_record().to_dict())
        assert "unit-test" in text

    def test_round_trip_exact(self):
        record = sample_record()
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()
        assert clone.best_reward == record.best_reward
        assert clone.rewards == [float(r) for r in record.rewards]
        assert clone.best_metrics == {
            k: float(v) for k, v in record.best_metrics.items()
        }
        assert clone.extra == record.extra

    def test_round_trip_through_json_text(self):
        record = sample_record(best=-2.25)
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.best_reward == -2.25
        np.testing.assert_array_equal(clone.best_so_far(), record.best_so_far())

    def test_extra_values_survive_persistence_unchanged(self, tmp_path):
        record = sample_record()
        record.extra = {"transfer": "gcn_transfer_from_two_tia"}
        for backend in STORE_BACKENDS:
            with open_run_store(backend, tmp_path / backend) as store:
                store.put(sample_key(), record)
                assert store.get(sample_key()).extra == record.extra

    def test_from_dict_tolerates_missing_optionals(self):
        clone = RunRecord.from_dict(
            {
                "method": "bo",
                "circuit": "ldo",
                "technology": "45nm",
                "seed": 1,
                "steps": 9,
                "best_reward": 0.5,
            }
        )
        assert clone.best_metrics == {} and clone.rewards == [] and clone.extra == {}


class TestRunKey:
    def test_override_order_does_not_change_key(self):
        a = make_run_key("gcn_rl", "two_tia", "180nm", 5, 0, weight_overrides={"gain": 10.0, "power": 2.0})
        b = make_run_key("gcn_rl", "two_tia", "180nm", 5, 0, weight_overrides={"power": 2.0, "gain": 10.0})
        assert a == b and a.key_id() == b.key_id()

    def test_distinct_coordinates_distinct_ids(self):
        ids = {sample_key(seed=s).key_id() for s in range(5)}
        assert len(ids) == 5
        assert sample_key().key_id() != sample_key(method="bo").key_id()

    def test_dict_round_trip(self):
        key = sample_key(gain=10.0)
        clone = RunKey.from_dict(json.loads(json.dumps(key.to_dict())))
        assert clone == key and clone.key_id() == key.key_id()

    def test_canonical_is_stable_json(self):
        key = sample_key()
        assert json.loads(key.canonical()) == key.to_dict()

    def test_runner_key_covers_rl_warmup(self):
        settings = ExperimentSettings()
        rl = run_key_for("gcn_rl", "two_tia", steps=30, settings=settings)
        assert ("warmup", settings.rl_warmup(30)) in rl.extra
        assert run_key_for("random", "two_tia", steps=30).extra == ()

    def test_transfer_key_covers_pretraining_source(self):
        from repro.experiments.transfer import transfer_run_key

        settings = ExperimentSettings()
        args = ("three_tia", "65nm", settings, 0, True, False, True, "transfer")
        from_180 = transfer_run_key(*args, source="180nm")
        from_250 = transfer_run_key(*args, source="250nm")
        assert from_180 != from_250
        # Scratch runs have no pretraining source, so it must not split keys.
        scratch = ("three_tia", "65nm", settings, 0, True, False, False, "no_transfer")
        assert transfer_run_key(*scratch, source="180nm") == transfer_run_key(
            *scratch, source="250nm"
        )


class TestStoreConformance:
    def test_put_get_contains_len(self, store):
        key, record = sample_key(), sample_record()
        assert store.get(key) is None and key not in store and len(store) == 0
        store.put(key, record)
        assert key in store and len(store) == 1
        got = store.get(key)
        assert got.to_dict() == record.to_dict()

    def test_latest_wins_on_duplicate_put(self, store):
        key = sample_key()
        store.put(key, sample_record(best=1.0))
        store.put(key, sample_record(best=9.0))
        assert len(store) == 1
        assert store.get(key).best_reward == 9.0

    def test_query_filters(self, store):
        for seed in range(3):
            store.put(sample_key(seed=seed), sample_record(seed=seed))
        other = make_run_key("bo", "ldo", "45nm", 5, 0)
        store.put(other, RunRecord("bo", "ldo", "45nm", 0, 5, 7.0))
        assert len(store.query()) == 4
        assert len(store.query(method="random")) == 3
        assert len(store.query(circuit="ldo")) == 1
        assert len(store.query(technology="180nm")) == 3
        assert len(store.query(seed=1)) == 1
        assert store.query(method="random", seed=2)[0].seed == 2
        assert store.query(method="es") == []

    def test_items_and_keys(self, store):
        key, record = sample_key(), sample_record()
        store.put(key, record)
        stored = list(store.items())
        assert len(stored) == 1
        assert stored[0].key == key
        assert stored[0].record.best_reward == record.best_reward
        assert store.keys() == [key]

    def test_clear(self, store):
        store.put(sample_key(), sample_record())
        store.clear()
        assert len(store) == 0 and store.get(sample_key()) is None

    def test_clear_drops_runs_checkpoints_and_quarantine(self, store):
        store.put(sample_key(seed=0), sample_record())
        store.put_checkpoint(sample_key(seed=1), b"blob")
        store.put_quarantine(sample_key(seed=2), {"kind": "injected"})
        store.clear()
        assert len(store) == 0
        assert store.get_checkpoint(sample_key(seed=1)) is None
        assert store.get_quarantine(sample_key(seed=2)) is None
        assert store.quarantine_ids() == []

    def test_context_manager_and_describe(self, store):
        with store as st:
            st.put(sample_key(), sample_record())
            assert "1" in st.describe()


def test_sqlite_membership_does_not_decode_the_record(tmp_path, monkeypatch):
    def no_decode(data):
        raise AssertionError("membership test decoded a record")

    with open_run_store("sqlite", tmp_path / "store") as store:
        store.put(sample_key(0), sample_record(0))
        monkeypatch.setattr(RunRecord, "from_dict", no_decode)
        assert sample_key(0) in store
        assert sample_key(1) not in store


class TestCheckpointConformance:
    """Every backend speaks the same mid-run checkpoint contract."""

    def test_put_get_delete_round_trip(self, store):
        key = sample_key()
        assert store.get_checkpoint(key) is None
        store.put_checkpoint(key, b"state-1")
        assert store.get_checkpoint(key) == b"state-1"
        # Latest wins on re-put.
        store.put_checkpoint(key, b"state-2")
        assert store.get_checkpoint(key) == b"state-2"
        store.delete_checkpoint(key)
        assert store.get_checkpoint(key) is None
        # Deleting an absent checkpoint is a no-op.
        store.delete_checkpoint(key)

    def test_checkpoints_keyed_by_run_identity(self, store):
        store.put_checkpoint(sample_key(seed=0), b"zero")
        store.put_checkpoint(sample_key(seed=1), b"one")
        assert store.get_checkpoint(sample_key(seed=0)) == b"zero"
        assert store.get_checkpoint(sample_key(seed=1)) == b"one"

    def test_checkpoint_independent_of_final_record(self, store):
        key = sample_key()
        store.put_checkpoint(key, b"mid-run")
        store.put(key, sample_record())
        # Records and checkpoints are separate channels under one key.
        assert store.get(key) is not None
        assert store.get_checkpoint(key) == b"mid-run"

    def test_clear_drops_checkpoints(self, store):
        store.put_checkpoint(sample_key(), b"blob")
        store.clear()
        assert store.get_checkpoint(sample_key()) is None

    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_checkpoints_survive_reopen(self, backend, tmp_path):
        key = sample_key()
        with open_run_store(backend, tmp_path / "store") as store:
            store.put_checkpoint(key, b"durable")
        with open_run_store(backend, tmp_path / "store") as store:
            assert store.get_checkpoint(key) == b"durable"


class TestQueueConformance:
    """Every backend speaks the same run-queue contract."""

    def test_put_queued_round_trip_in_first_submission_order(self, store):
        assert store.queued() == []
        store.put_queued(sample_key(seed=1), {"checkpoint_every": 1})
        store.put_queued(sample_key(seed=0), {"checkpoint_every": 2})
        # Latest payload wins; the row keeps its place.
        store.put_queued(sample_key(seed=1), {"checkpoint_every": 3})
        assert store.queued() == [
            (sample_key(seed=1), {"checkpoint_every": 3}),
            (sample_key(seed=0), {"checkpoint_every": 2}),
        ]

    def test_clear_drops_the_queue(self, store):
        store.put_queued(sample_key(), {"checkpoint_every": 1})
        store.clear()
        assert store.queued() == []

    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_queue_survives_reopen(self, backend, tmp_path):
        payload = {"evaluator": {"backend": "local", "cache_size": 0}}
        with open_run_store(backend, tmp_path / "store") as store:
            store.put_queued(sample_key(), payload)
        with open_run_store(backend, tmp_path / "store") as store:
            assert store.queued() == [(sample_key(), payload)]


class TestPersistence:
    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_reopen_sees_data(self, backend, tmp_path):
        directory = tmp_path / "store"
        key, record = sample_key(), sample_record()
        with open_run_store(backend, directory) as store:
            store.put(key, record)
        with open_run_store(backend, directory) as store:
            assert len(store) == 1
            assert store.get(key).to_dict() == record.to_dict()

    @pytest.mark.parametrize("backend", PERSISTENT_BACKENDS)
    def test_latest_wins_across_reopen(self, backend, tmp_path):
        directory = tmp_path / "store"
        key = sample_key()
        with open_run_store(backend, directory) as store:
            store.put(key, sample_record(best=1.0))
        with open_run_store(backend, directory) as store:
            store.put(key, sample_record(best=5.0))
        with open_run_store(backend, directory) as store:
            assert store.get(key).best_reward == 5.0 and len(store) == 1

    def test_factory_rejects_unknown_backend_and_missing_dir(self, tmp_path):
        with pytest.raises(ValueError):
            open_run_store("redis", tmp_path)
        with pytest.raises(ValueError):
            open_run_store("jsonl", tmp_path)
        with pytest.raises(ValueError):
            open_run_store("sqlite")
        assert isinstance(open_run_store(), MemoryStore)
        assert isinstance(open_run_store("sqlite", tmp_path / "b"), SqliteStore)

    def test_jsonl_era_directory_is_refused(self, tmp_path, capsys):
        directory = tmp_path / "old-store"
        directory.mkdir()
        (directory / "runs.jsonl").write_text('{"key": {}, "record": {}}\n')
        with pytest.raises(ValueError, match="runs.jsonl"):
            open_run_store("sqlite", directory)
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--store-dir", str(directory)])
        err = capsys.readouterr().err
        assert "runs.jsonl" in err and "re-run the sweep" in err
        assert "Traceback" not in err
        # Refused before anything was created beside the old log.
        assert not (directory / "runs.sqlite").exists()


class TestRunnerStoreIntegration:
    def test_run_method_executes_once_per_store_key(self, tmp_path, monkeypatch):
        builds = []
        real_build = runner_module.build_environment

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(runner_module, "build_environment", counting_build)
        with open_run_store("sqlite", tmp_path / "store") as store:
            first = run_method("random", "two_tia", steps=3, seed=0, store=store)
            second = run_method("random", "two_tia", steps=3, seed=0, store=store)
        assert len(builds) == 1
        assert second.to_dict() == first.to_dict()

    def test_store_survives_process_boundary(self, tmp_path):
        directory = tmp_path / "store"
        with open_run_store("sqlite", directory) as store:
            first = run_method("random", "two_tia", steps=3, seed=1, store=store)
        # A "new process": a fresh store handle over the same directory.
        with open_run_store("sqlite", directory) as store:
            key = run_key_for("random", "two_tia", steps=3, seed=1)
            cached = store.get(key)
            assert cached is not None
            assert cached.best_reward == first.best_reward
            assert cached.rewards == [float(r) for r in first.rewards]

    def test_use_cache_false_still_writes_explicit_store(self, tmp_path):
        with open_run_store("sqlite", tmp_path / "store") as store:
            run_method("human", "two_tia", seed=0, store=store, use_cache=False)
            assert len(store) == 1

    def test_evaluator_closed_when_optimizer_raises(self, monkeypatch):
        closed = []
        real_build = runner_module.build_environment

        def tracking_build(*args, **kwargs):
            environment = real_build(*args, **kwargs)
            original_close = environment.evaluator.close

            def close():
                closed.append(True)
                original_close()

            environment.evaluator.close = close
            return environment

        def raising_strategy(*args, **kwargs):
            raise RuntimeError("optimizer exploded")

        monkeypatch.setattr(runner_module, "build_environment", tracking_build)
        monkeypatch.setattr(runner_module, "build_strategy", raising_strategy)
        with pytest.raises(RuntimeError, match="optimizer exploded"):
            run_method("random", "two_tia", steps=2, seed=0, use_cache=False)
        assert closed == [True]

    def test_run_methods_zero_seeds_not_replaced(self, monkeypatch):
        calls = []

        def fake_run_method(method, circuit_name, **kwargs):
            calls.append((method, kwargs["steps"], kwargs["seed"]))
            return RunRecord(method, circuit_name, "180nm", kwargs["seed"], 1, 0.0)

        monkeypatch.setattr(runner_module, "run_method", fake_run_method)
        results = run_methods(["random"], "two_tia", steps=0, seeds=0)
        assert results["random"] == [] and calls == []

    def test_run_methods_zero_steps_passed_through(self, monkeypatch):
        calls = []

        def fake_run_method(method, circuit_name, **kwargs):
            calls.append(kwargs["steps"])
            return RunRecord(method, circuit_name, "180nm", kwargs["seed"], 1, 0.0)

        monkeypatch.setattr(runner_module, "run_method", fake_run_method)
        # "human" always runs one seed, so steps=0 must reach run_method
        # instead of falling back to settings.steps.
        results = run_methods(["human"], "two_tia", steps=0, seeds=0)
        assert len(results["human"]) == 1 and calls == [0]


def tiny_spec(**overrides):
    spec = CampaignSpec(
        methods=["human", "random"],
        circuits=["two_tia"],
        technologies=["180nm"],
        seeds=2,
        steps=3,
    )
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


class TestCampaign:
    def test_expand_grid_human_single_seed(self):
        requests = tiny_spec().expand()
        # human contributes 1 cell, random contributes seeds=2 cells.
        assert len(requests) == 3
        assert [r.seed for r in requests if r.method == "human"] == [0]
        assert [r.seed for r in requests if r.method == "random"] == [0, 1]

    def test_expand_weight_override_axis(self):
        spec = tiny_spec(
            methods=["gcn_rl"],
            weight_overrides=[None, {"gain": 10.0}],
            seeds=1,
        )
        requests = spec.expand()
        assert len(requests) == 2
        assert requests[0].weight_overrides is None
        assert requests[1].weight_overrides == {"gain": 10.0}

    def test_from_settings_matches_table1_grid(self):
        settings = ExperimentSettings()
        settings.methods = ["human", "random"]
        settings.circuits = ["two_tia", "ldo"]
        settings.seeds = 2
        settings.steps = 7
        spec = CampaignSpec.from_settings(settings)
        assert spec.technologies == ["180nm"]
        assert len(spec.expand()) == 2 * (1 + 2)

    def test_full_sweep_then_all_skipped(self, tmp_path):
        store = open_run_store("sqlite", tmp_path / "store")
        campaign = Campaign(tiny_spec(), store)
        report = campaign.run()
        assert report.total == 3 and report.executed == 3 and report.skipped == 0
        assert not report.interrupted and report.remaining == 0
        again = campaign.run()
        assert again.executed == 0 and again.skipped == 3
        assert campaign.status() == {
            "total": 3,
            "completed": 3,
            "pending": 0,
            "quarantined": 0,
        }
        store.close()

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        spec = tiny_spec()
        # Uninterrupted reference sweep.
        with open_run_store("sqlite", tmp_path / "ref") as ref_store:
            reference = Campaign(spec, ref_store).run()

        # Sweep killed after one execution...
        with open_run_store("sqlite", tmp_path / "resume") as store:
            partial = Campaign(spec, store).run(max_runs=1)
            assert partial.interrupted
            assert partial.executed == 1 and partial.remaining == 2

        # ...then restarted against the same directory in a fresh handle.
        with open_run_store("sqlite", tmp_path / "resume") as store:
            resumed = Campaign(spec, store).run()
            assert resumed.executed == 2 and resumed.skipped == 1
            assert not resumed.interrupted

            final = Campaign(spec, store).run()
        assert final.executed == 0 and final.skipped == 3
        assert len(final.records) == len(reference.records) == 3
        for ours, theirs in zip(final.records, reference.records):
            assert ours.best_reward == theirs.best_reward
            assert ours.rewards == theirs.rewards
            assert ours.method == theirs.method and ours.seed == theirs.seed

    def test_fully_stored_transfer_skips_pretraining(self, tmp_path, monkeypatch):
        from repro.experiments import clear_transfer_cache, transfer
        from repro.experiments.transfer import technology_transfer_experiment

        settings = ExperimentSettings()
        settings.pretrain_steps = 6
        settings.transfer_steps = 5
        settings.transfer_warmup = 2
        settings.seeds = 1
        settings.transfer_targets = ["250nm"]

        clear_transfer_cache()
        with open_run_store("sqlite", tmp_path / "store") as store:
            first = technology_transfer_experiment("two_tia", settings, store=store)

        # "New process": in-process caches gone, only the store remains —
        # and pretraining must not run when every finetune cell is stored.
        clear_transfer_cache()

        def no_pretrain(*args, **kwargs):
            raise AssertionError("pretrain_weights ran despite a full store")

        monkeypatch.setattr(transfer, "pretrain_weights", no_pretrain)
        with open_run_store("sqlite", tmp_path / "store") as store:
            second = technology_transfer_experiment("two_tia", settings, store=store)
        for target in settings.transfer_targets:
            for ours, theirs in zip(
                second.transfer[target] + second.no_transfer[target],
                first.transfer[target] + first.no_transfer[target],
            ):
                assert ours.best_reward == theirs.best_reward
                assert ours.rewards == [float(r) for r in theirs.rewards]
        clear_transfer_cache()

    def test_progress_callback_outcomes(self, tmp_path):
        outcomes = []
        with open_run_store("sqlite", tmp_path / "store") as store:
            campaign = Campaign(tiny_spec(seeds=1), store)
            campaign.run(progress=lambda request, outcome: outcomes.append(outcome))
            assert outcomes == ["executed", "executed"]
            outcomes.clear()
            # Cells done before the sweep are not announced.
            campaign.run(progress=lambda request, outcome: outcomes.append(outcome))
            assert outcomes == []

    def test_concurrent_sweeps_execute_each_cell_once(self, monkeypatch):
        store = MemoryStore()
        spec = tiny_spec(methods=["random", "es"], steps=8)
        builds = []
        real_build = runner_module.build_environment

        def slow_counting_build(circuit_name, *args, **kwargs):
            # Widen the window in which another sweep could pick the same
            # cell: the lease must keep it out.
            builds.append(circuit_name)
            time.sleep(0.05)
            return real_build(circuit_name, *args, **kwargs)

        monkeypatch.setattr(runner_module, "build_environment", slow_counting_build)
        sweeps = 3  # more threads than cores, switching often
        barrier = threading.Barrier(sweeps)
        reports = [None] * sweeps

        def sweep(index):
            barrier.wait()
            reports[index] = Campaign(spec, store).run()

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(sweeps)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == len(spec.expand()) == 4
        assert all(report.remaining == 0 for report in reports)
        assert len(store) == 4

    def test_inprocess_sweep_releases_its_leases_and_connection(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import worker as worker_module

        opened = []
        real_lease_store_for = worker_module.lease_store_for

        def recording_lease_store_for(store):
            leases = real_lease_store_for(store)
            opened.append(leases)
            return leases

        monkeypatch.setattr(worker_module, "lease_store_for", recording_lease_store_for)
        with open_run_store("sqlite", tmp_path / "store") as store:
            report = Campaign(tiny_spec(), store).run()
            assert report.executed == 3
            assert lease_rows(store) == []
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError):
            opened[0]._conn.execute("SELECT 1")

    def test_interrupted_sweep_frees_its_cell_for_the_next_sweep(
        self, tmp_path, monkeypatch
    ):
        real_run_method = runner_module.run_method

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        with open_run_store("sqlite", tmp_path / "store") as store:
            monkeypatch.setattr(runner_module, "run_method", interrupted)
            with pytest.raises(KeyboardInterrupt):
                Campaign(tiny_spec(), store).run()
            # The live process holds no lease: the cell is free at once.
            assert lease_rows(store) == []
            monkeypatch.setattr(runner_module, "run_method", real_run_method)
            started = time.monotonic()
            report = Campaign(tiny_spec(), store).run()
            assert report.executed == 3 and report.remaining == 0
            assert time.monotonic() - started < DEFAULT_TTL / 2


class TestStoreCLI:
    def _env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CIRCUITS", "two_tia")
        monkeypatch.setenv("REPRO_METHODS", "human,random")

    def test_sweep_interrupt_resume_and_zero_reexecution(
        self, tmp_path, capsys, monkeypatch
    ):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        base = ["sweep", "--steps", "3", "--seeds", "1", "--store-dir", store_dir]
        assert cli_main(base + ["--max-runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep interrupted: total=2 executed=1 skipped=0 remaining=1" in out

        assert cli_main(base) == 0
        out = capsys.readouterr().out
        assert "sweep complete: total=2 executed=1 skipped=1 remaining=0" in out

        assert cli_main(base) == 0
        out = capsys.readouterr().out
        assert "sweep complete: total=2 executed=0 skipped=2 remaining=0" in out

    def test_ls_and_export(self, tmp_path, capsys, monkeypatch):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        assert (
            cli_main(["sweep", "--steps", "3", "--seeds", "1", "--store-dir", store_dir])
            == 0
        )
        capsys.readouterr()

        assert cli_main(["ls", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out and "human" in out and "random" in out

        assert cli_main(["ls", "--store-dir", store_dir, "--method", "random"]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out

        output = tmp_path / "runs.json"
        assert (
            cli_main(
                ["export", "--store-dir", store_dir, "--output", str(output)]
            )
            == 0
        )
        rows = json.loads(output.read_text())
        assert len(rows) == 2
        assert {row["key"]["method"] for row in rows} == {"human", "random"}
        clone = RunRecord.from_dict(rows[0]["record"])
        assert np.isfinite(clone.best_reward)

    def test_runs_keyed_on_retired_pool_backends_stay_readable(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        with open_run_store("sqlite", store_dir) as store:
            for backend in ("thread", "process"):
                key = make_run_key(
                    "random", "two_tia", "180nm", 5, 0,
                    evaluator_key=("evaluator", backend, 2, 0),
                )
                store.put(key, sample_record())
        assert cli_main(["ls", "--store-dir", str(store_dir)]) == 0
        assert "2 run(s)" in capsys.readouterr().out
        output = tmp_path / "runs.json"
        assert cli_main(
            ["export", "--store-dir", str(store_dir), "--output", str(output)]
        ) == 0
        rows = json.loads(output.read_text())
        assert sorted(row["key"]["evaluator"][1] for row in rows) == [
            "process",
            "thread",
        ]

    def test_ls_without_store_is_graceful(self, capsys):
        assert cli_main(["ls"]) == 0
        assert "no store configured" in capsys.readouterr().out

    def test_sweep_without_store_refuses(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["sweep", "--steps", "3", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "no store configured" in out and "sweep" not in out

    def test_env_store_dir_alone_implies_persistent_backend(
        self, tmp_path, capsys, monkeypatch
    ):
        self._env(monkeypatch)
        store_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        assert cli_main(["sweep", "--steps", "3", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep complete: total=2 executed=2" in out
        assert (store_dir / "runs.sqlite").exists()  # not a throwaway MemoryStore

    def test_table1_reuses_sweep_store(self, tmp_path, capsys, monkeypatch):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        assert (
            cli_main(["sweep", "--steps", "3", "--seeds", "1", "--store-dir", store_dir])
            == 0
        )
        capsys.readouterr()
        builds = []
        real_build = runner_module.build_environment

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(runner_module, "build_environment", counting_build)
        assert (
            cli_main(
                ["table1", "--steps", "3", "--seeds", "1", "--store-dir", store_dir]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table I" in out
        # Every Table I cell was served from the persistent store.
        assert builds == []
