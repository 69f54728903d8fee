"""Tests for distributed campaign execution (repro.cluster).

Covers the lease-store conformance contract on both backends (claim
exclusivity — including under concurrent claimants —, expiry reclaim, renew
extension, release idempotence), the dead-pid vacuum on the sqlite store,
the work scheduler (sweep-order claims, expired-lease stealing, cell
states), the campaign worker loop (drain, SIGTERM-style pause/resume,
lease-loss abandonment), the cluster launcher + CLI surface, and the
end-to-end acceptance scenario: two workers over one store, one SIGKILLed
mid-method, the survivor takes over its cell and finishes with zero
duplicated simulation and records bit-identical to a serial reference.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing

import pytest

import repro
from repro.cluster import (
    CampaignWorker,
    LeaseHeartbeat,
    LeaseLostError,
    MemoryLeaseStore,
    SqliteLeaseStore,
    WorkScheduler,
    cell_states,
    lease_store_for,
    make_owner_id,
)
from repro.experiments import ExperimentSettings
from repro.experiments import runner as runner_module
from repro.experiments.__main__ import main as cli_main
from repro.store import (
    Campaign,
    CampaignSpec,
    MemoryStore,
    make_run_key,
    open_run_store,
)
from repro.store.sqlite import SqliteStore, pid_alive

LEASE_BACKENDS = ("memory", "sqlite")


class FakeClock:
    """Deterministic wall clock so expiry tests never sleep."""

    def __init__(self, start: float = 1_000.0):
        self.t = float(start)

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def sample_key(seed=0, method="random"):
    return make_run_key(
        method,
        "two_tia",
        "180nm",
        5,
        seed,
        evaluator_key=("evaluator", "local", None, 0),
    )


@pytest.fixture(params=LEASE_BACKENDS)
def lease_backend(request, tmp_path):
    """``(build, backend_name)``: build(clock) opens a lease store handle.

    For the sqlite backend every ``build`` call opens a *new* handle over
    the same directory, mirroring separate worker processes.
    """
    param = request.param
    handles = []

    def build(clock=time.time):
        if param == "memory":
            if not handles:
                handles.append(MemoryLeaseStore(clock))
            return handles[0]
        store = SqliteLeaseStore(tmp_path / "store", clock)
        handles.append(store)
        return store

    yield build, param
    for handle in handles:
        handle.close()


class TestLeaseConformance:
    def test_claim_then_conflicting_claim_fails(self, lease_backend):
        build, _ = lease_backend
        clock = FakeClock()
        store = build(clock)
        key = sample_key()
        lease = store.claim(key, "alice", ttl=10.0)
        assert lease is not None
        assert lease.owner == "alice"
        assert lease.expires_at == pytest.approx(clock() + 10.0)
        assert store.claim(key, "bob", ttl=10.0) is None
        assert store.get(key).owner == "alice"

    def test_claim_is_reentrant_for_owner(self, lease_backend):
        build, _ = lease_backend
        clock = FakeClock()
        store = build(clock)
        key = sample_key()
        assert store.claim(key, "alice", ttl=10.0) is not None
        clock.advance(5.0)
        again = store.claim(key, "alice", ttl=10.0)
        assert again is not None
        assert again.expires_at == pytest.approx(clock() + 10.0)

    def test_expired_lease_is_stealable(self, lease_backend):
        build, _ = lease_backend
        clock = FakeClock()
        store = build(clock)
        key = sample_key()
        store.claim(key, "alice", ttl=10.0)
        clock.advance(9.9)
        assert store.claim(key, "bob", ttl=10.0) is None
        clock.advance(0.2)  # past expiry
        stolen = store.claim(key, "bob", ttl=10.0)
        assert stolen is not None
        assert stolen.owner == "bob"
        assert store.get(key).owner == "bob"

    def test_renew_extends_only_for_owner(self, lease_backend):
        build, _ = lease_backend
        clock = FakeClock()
        store = build(clock)
        key = sample_key()
        store.claim(key, "alice", ttl=10.0)
        clock.advance(8.0)
        assert store.renew(key, "alice", ttl=10.0) is True
        assert store.get(key).expires_at == pytest.approx(clock() + 10.0)
        # Renewal preserves the original acquisition time (age keeps growing).
        assert store.get(key).acquired_at == pytest.approx(clock() - 8.0)
        assert store.renew(key, "bob", ttl=10.0) is False
        assert store.renew(sample_key(seed=7), "alice", ttl=10.0) is False

    def test_release_is_idempotent(self, lease_backend):
        build, _ = lease_backend
        store = build(FakeClock())
        key = sample_key()
        store.claim(key, "alice", ttl=10.0)
        assert store.release(key, "alice") is True
        assert store.get(key) is None
        # Releasing an already-released (or never-claimed) key succeeds.
        assert store.release(key, "alice") is True
        # Releasing someone else's live lease fails and leaves it intact.
        store.claim(key, "bob", ttl=10.0)
        assert store.release(key, "alice") is False
        assert store.get(key).owner == "bob"

    def test_reclaim_expired_and_clear(self, lease_backend):
        build, _ = lease_backend
        clock = FakeClock()
        store = build(clock)
        fresh, stale = sample_key(seed=1), sample_key(seed=2)
        store.claim(stale, "alice", ttl=5.0)
        clock.advance(6.0)
        store.claim(fresh, "alice", ttl=60.0)
        reclaimed = store.reclaim_expired()
        assert [lease.key_id for lease in reclaimed] == [stale.key_id()]
        assert store.get(stale) is None
        assert store.get(fresh) is not None
        store.clear()
        assert store.leases() == []

    def test_cross_handle_visibility(self, lease_backend):
        build, backend = lease_backend
        clock = FakeClock()
        writer, reader = build(clock), build(clock)
        key = sample_key()
        writer.claim(key, "alice", ttl=10.0)
        assert reader.get(key).owner == "alice"
        assert reader.claim(key, "bob", ttl=10.0) is None

    def test_concurrent_claimants_exactly_one_wins(self, lease_backend):
        build, _ = lease_backend
        store = build(time.time)
        key = sample_key()
        claimants = 8
        barrier = threading.Barrier(claimants)
        winners = []

        def contend(name):
            barrier.wait()
            if store.claim(key, name, ttl=60.0) is not None:
                winners.append(name)

        threads = [
            threading.Thread(target=contend, args=(f"claimant-{i}",))
            for i in range(claimants)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        assert store.get(key).owner == winners[0]


class TestOwnerIdAndFactory:
    def test_owner_id_shape(self):
        owner = make_owner_id("w0")
        host, pid, name = owner.rsplit(":", 2)
        assert host and name == "w0"
        assert int(pid) == os.getpid()
        # Without a name the suffix is random but non-empty.
        assert make_owner_id() != make_owner_id()

    def test_lease_store_for_memory_is_cached_on_the_store(self):
        store = MemoryStore()
        first = lease_store_for(store)
        assert isinstance(first, MemoryLeaseStore)
        assert lease_store_for(store) is first

    def test_lease_store_for_directory_backends(self, tmp_path):
        with open_run_store("sqlite", tmp_path / "s") as store:
            sqlite_leases = lease_store_for(store)
            assert isinstance(sqlite_leases, SqliteLeaseStore)
            sqlite_leases.close()

    def test_lease_store_for_unknown_type_raises(self):
        with pytest.raises(TypeError):
            lease_store_for(object())


@pytest.fixture
def dead_pid():
    """A pid guaranteed dead: a reaped child of this very process."""
    process = subprocess.Popen([sys.executable, "-c", "pass"])
    process.wait()
    return process.pid


class TestSqliteVacuum:
    def test_pid_alive(self, dead_pid):
        assert pid_alive(os.getpid()) is True
        assert pid_alive(dead_pid) is False
        assert pid_alive(0) is False
        assert pid_alive(-5) is False

    def test_vacuum_clears_dead_local_leases_only(self, tmp_path, dead_pid):
        leases = SqliteLeaseStore(tmp_path)
        live = leases.claim(sample_key(seed=1), "live", ttl=3600.0)
        assert live is not None and live.pid == os.getpid()
        # Forge a lease from a dead local pid and one from another host.
        conn = leases._conn
        for key, owner, pid, host in (
            (sample_key(seed=2), "dead-local", dead_pid, live.host),
            (sample_key(seed=3), "remote", dead_pid, "elsewhere.example"),
        ):
            conn.execute(
                "INSERT INTO leases (key_id, owner, acquired_at, expires_at, pid, host) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (key.key_id(), owner, 0.0, 1e12, pid, host),
            )
        conn.commit()

        store = SqliteStore(tmp_path)  # __init__ runs the vacuum sweep
        owners = {lease.owner for lease in leases.leases()}
        assert "dead-local" not in owners  # provably dead, same host: cleared
        assert "live" in owners  # our own pid is alive
        assert "remote" in owners  # foreign host: left to wall-clock expiry
        store.close()
        leases.close()

    def test_vacuum_returns_count(self, tmp_path, dead_pid):
        store = SqliteStore(tmp_path)
        leases = SqliteLeaseStore(tmp_path)
        assert store.vacuum_leases() == 0
        lease = leases.claim(sample_key(), "victim", ttl=3600.0)
        leases._conn.execute(
            "UPDATE leases SET pid = ? WHERE key_id = ?",
            (dead_pid, lease.key_id),
        )
        leases._conn.commit()
        assert store.vacuum_leases() == 1
        assert leases.leases() == []
        leases.close()
        store.close()


def small_settings(methods, steps=6, seeds=1):
    settings = ExperimentSettings()
    settings.methods = list(methods)
    settings.circuits = ["two_tia"]
    settings.steps = steps
    settings.seeds = seeds
    return settings


def small_campaign(store, methods=("human", "random"), steps=6, seeds=1):
    settings = small_settings(methods, steps=steps, seeds=seeds)
    spec = CampaignSpec.from_settings(settings)
    return Campaign(spec, store, settings=settings)


class TestWorkScheduler:
    def test_claims_in_sweep_order_and_skips_done(self):
        store = MemoryStore()
        campaign = small_campaign(store, methods=("human", "random"), seeds=2)
        leases = MemoryLeaseStore()
        scheduler = WorkScheduler(campaign, leases, owner="w0", ttl=30.0)
        first = scheduler.next_assignment()
        assert (first.request.method, first.request.seed) == ("human", 0)
        assert not first.stolen and not first.resumed
        # Completing the cell (and releasing) moves the scan forward.
        runner_module.run_method("human", "two_tia", steps=6, store=store,
                                 settings=campaign.settings)
        leases.release(first.key, "w0")
        second = scheduler.next_assignment()
        assert (second.request.method, second.request.seed) == ("random", 0)

    def test_live_leases_block_and_expired_ones_are_stolen(self):
        clock = FakeClock()
        store = MemoryStore()
        campaign = small_campaign(store, methods=("random",), seeds=2)
        leases = MemoryLeaseStore(clock)
        for request in campaign.requests():
            leases.claim(campaign.key_for(request), "straggler", ttl=10.0)
        scheduler = WorkScheduler(campaign, leases, owner="thief", ttl=10.0,
                                  clock=clock)
        assert scheduler.next_assignment() is None
        assert scheduler.outstanding() == 2
        clock.advance(10.1)
        stolen = scheduler.next_assignment()
        assert stolen is not None and stolen.stolen
        assert stolen.lease.owner == "thief"
        # Unclaimed cells win over steals.
        leases.release(campaign.key_for(campaign.requests()[1]), "straggler")
        # (thief now holds cell 0; cell 1 is free)
        free = scheduler.next_assignment()
        assert free is not None

    def test_assignment_reports_resume_when_checkpoint_exists(self):
        store = MemoryStore()
        campaign = small_campaign(store, methods=("random",))
        key = campaign.key_for(campaign.requests()[0])
        store.put_checkpoint(key, b"blob")
        scheduler = WorkScheduler(campaign, MemoryLeaseStore(), owner="w0", ttl=30.0)
        assignment = scheduler.next_assignment()
        assert assignment.resumed

    def test_cell_states_cover_all_cases(self):
        clock = FakeClock()
        store = MemoryStore()
        campaign = small_campaign(store, methods=("human", "random"), seeds=3)
        leases = MemoryLeaseStore(clock)
        requests = campaign.requests()  # human s0, random s0/s1/s2
        runner_module.run_method("human", "two_tia", steps=6, store=store,
                                 settings=campaign.settings)
        leases.claim(campaign.key_for(requests[1]), "w-live", ttl=100.0)
        leases.claim(campaign.key_for(requests[2]), "w-dead", ttl=5.0)
        clock.advance(6.0)
        states = cell_states(campaign, leases, clock=clock)
        assert [cell.state for cell in states] == [
            "done", "leased", "expired", "pending",
        ]
        leased = states[1]
        assert "w-live" in leased.describe(clock())
        assert "age=6.0s" in leased.describe(clock())


class TestCampaignWorker:
    def test_drains_grid_and_counts(self):
        store = MemoryStore()
        campaign = small_campaign(store, methods=("human", "random"), seeds=2)
        worker = CampaignWorker(campaign, checkpoint_every=1, poll_interval=0.01)
        report = worker.run()
        assert report.executed == 3  # human×1 + random×2
        assert report.skipped == report.lost == report.paused == 0
        assert campaign.pending() == []
        assert lease_store_for(store).leases() == []
        assert "executed=3" in report.summary()

    def test_two_inprocess_workers_split_without_duplication(self):
        store = MemoryStore()
        campaign = small_campaign(store, methods=("random", "es"), steps=8, seeds=2)
        workers = [
            CampaignWorker(campaign, worker_id=f"w{i}", checkpoint_every=1,
                           poll_interval=0.01)
            for i in range(2)
        ]
        reports = [None, None]
        threads = [
            threading.Thread(target=lambda i=i: reports.__setitem__(
                i, workers[i].run()))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(r.executed for r in reports) + sum(
            r.skipped for r in reports) >= 4
        assert sum(r.executed for r in reports) == 4
        assert campaign.pending() == []
        # Each cell's record was produced exactly once.
        assert len(store) == 4

    def test_stop_request_pauses_mid_method_and_resume_is_bit_identical(self):
        store = MemoryStore()
        # Budget of several ES population-steps: pausing after the first
        # ask/tell step is guaranteed to land mid-method.
        campaign = small_campaign(store, methods=("es",), steps=48)
        worker = CampaignWorker(campaign, checkpoint_every=1, poll_interval=0.01)

        def stop_after_first(event):
            if event.step >= 1:
                worker.request_stop()

        worker.step_callbacks = [stop_after_first]
        report = worker.run()
        assert report.paused == 1 and report.executed == 0
        key = campaign.key_for(campaign.requests()[0])
        assert store.get_checkpoint(key) is not None  # checkpointed mid-method
        assert lease_store_for(store).get(key) is None  # released cleanly

        # A second worker resumes from the checkpoint and finishes.
        resumer = CampaignWorker(campaign, checkpoint_every=1, poll_interval=0.01)
        resumed = resumer.run()
        assert resumed.executed == 1 and resumed.resumed == 1
        record = store.get(key)
        assert sum(record.step_evaluations) == 48

        # Bit-identical to an uninterrupted serial run.
        reference = runner_module.run_method(
            "es", "two_tia", steps=48, store=MemoryStore(),
            settings=campaign.settings,
        )
        ours = record.to_dict()
        ref = reference.to_dict()
        ours.pop("wall_time_s"), ref.pop("wall_time_s")
        assert ours == ref

    def test_lease_loss_abandons_without_touching_store(self, monkeypatch):
        store = MemoryStore()
        campaign = small_campaign(store, methods=("random",))
        worker = CampaignWorker(campaign, worker_id="victim", checkpoint_every=1,
                                poll_interval=0.01)

        def doomed_run_method(*args, pause_check=None, **kwargs):
            raise LeaseLostError("stolen")

        monkeypatch.setattr(runner_module, "run_method", doomed_run_method)
        report = worker.run(max_cells=1)
        assert report.lost == 1 and report.executed == 0
        # The lease was NOT released: it belongs to the (simulated) thief.
        key = campaign.key_for(campaign.requests()[0])
        assert lease_store_for(store).get(key) is not None

    def test_claimed_cell_already_done_is_skipped_and_released(self):
        store = MemoryStore()
        campaign = small_campaign(store, methods=("random",))
        worker = CampaignWorker(campaign, checkpoint_every=1, poll_interval=0.01)
        # Simulate another worker finishing the cell between scan and claim:
        # pre-claim, then complete the record under the hood.
        assignment = worker.scheduler.next_assignment()
        runner_module.run_method("random", "two_tia", steps=6, store=store,
                                 settings=campaign.settings)
        from repro.cluster.worker import WorkerReport

        report = WorkerReport(worker_id=worker.worker_id)
        worker._execute(assignment, report)
        assert report.skipped == 1 and report.executed == 0
        assert lease_store_for(store).get(assignment.key) is None


class TestLeaseHeartbeat:
    def test_renews_until_stopped(self):
        leases = MemoryLeaseStore()
        key = sample_key()
        leases.claim(key, "w0", ttl=0.5)
        heartbeat = LeaseHeartbeat(leases, key, "w0", ttl=0.5, interval=0.02)
        heartbeat.start()
        time.sleep(0.3)
        assert not heartbeat.lost
        before = leases.get(key).expires_at
        assert before > time.time()  # kept alive well past the original ttl
        heartbeat.stop()
        assert not heartbeat.is_alive()

    def test_flags_loss_when_lease_disappears(self):
        leases = MemoryLeaseStore()
        key = sample_key()
        leases.claim(key, "w0", ttl=0.5)
        heartbeat = LeaseHeartbeat(leases, key, "w0", ttl=0.5, interval=0.02)
        heartbeat.start()
        leases.clear()  # simulates expiry + steal by another worker
        deadline = time.time() + 5.0
        while not heartbeat.lost and time.time() < deadline:
            time.sleep(0.01)
        assert heartbeat.lost
        heartbeat.join(timeout=2.0)
        assert not heartbeat.is_alive()  # the thread exits on loss


class TestDriverPauseCheck:
    def test_pause_check_pauses_resumably(self):
        store = MemoryStore()
        settings = ExperimentSettings()
        key = runner_module.run_key_for("es", "two_tia", steps=32,
                                        settings=settings)
        calls = []

        def pause_after_two():
            return len(calls) >= 2

        def count(event):
            calls.append(event.step)

        paused = runner_module.run_method(
            "es", "two_tia", steps=32, store=store, settings=settings,
            checkpoint_every=1, callbacks=[count], pause_check=pause_after_two,
        )
        assert paused is None  # not finished
        assert store.get(key) is None
        assert store.get_checkpoint(key) is not None
        # Resuming without the pause hook completes bit-identically.
        record = runner_module.run_method(
            "es", "two_tia", steps=32, store=store, settings=settings,
        )
        reference = runner_module.run_method(
            "es", "two_tia", steps=32, store=MemoryStore(), settings=settings,
        )
        ours, ref = record.to_dict(), reference.to_dict()
        ours.pop("wall_time_s"), ref.pop("wall_time_s")
        assert ours == ref

    def test_pause_check_exception_propagates_without_checkpoint(self):
        store = MemoryStore()
        settings = ExperimentSettings()
        key = runner_module.run_key_for("random", "two_tia", steps=8,
                                        settings=settings)

        def explode():
            raise LeaseLostError("gone")

        with pytest.raises(LeaseLostError):
            runner_module.run_method(
                "random", "two_tia", steps=8, store=store, settings=settings,
                checkpoint_every=1, pause_check=explode,
            )
        assert store.get(key) is None
        assert store.get_checkpoint(key) is None


def _worker_cli_command(store_dir, spec, worker_id, ttl="2.0",
                        checkpoint_every="1"):
    return [
        sys.executable, "-m", "repro.experiments", "worker",
        "--store-dir", str(store_dir),
        "--spec", json.dumps(spec.to_dict()), "--worker-id", worker_id,
        "--ttl", ttl, "--poll", "0.05", "--checkpoint-every", checkpoint_every,
    ]


def _subprocess_env():
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _stripped_rows(store_dir):
    with open_run_store("sqlite", store_dir) as store:
        rows = [stored.to_dict() for stored in store.items()]
    for row in rows:
        row["record"].pop("wall_time_s", None)
    rows.sort(key=lambda row: json.dumps(row["key"], sort_keys=True))
    return rows


def _checkpoint_rows(store_dir) -> int:
    """Rows of the store's ``checkpoints`` table (0 before it exists)."""
    uri = f"file:{os.path.join(str(store_dir), 'runs.sqlite')}?mode=ro"
    try:
        with closing(sqlite3.connect(uri, uri=True)) as conn:
            return conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()[0]
    except sqlite3.OperationalError:  # no database or schema yet
        return 0


def _run_kill_resume_scenario(tmp_path, methods, steps, seeds, victim_method):
    """SIGKILL one worker mid-``victim_method``; a survivor finishes the grid.

    Returns the survivor's report after asserting zero duplicated work and
    bit-identity to a serial reference.  Opening the store vacuums the
    dead victim's lease (same host, dead pid), so the survivor *resumes*
    the orphaned cell from its checkpoint without stealing it; expired-lease
    steals are covered by the scheduler and lease conformance tests.
    """
    settings = small_settings(methods, steps=steps, seeds=seeds)
    # The victim must start on the method we intend to kill mid-run.
    assert settings.methods[0] == victim_method
    spec = CampaignSpec.from_settings(settings)

    ref_dir = tmp_path / "ref"
    with open_run_store("sqlite", ref_dir) as ref_store:
        reference = Campaign(spec, ref_store, settings=settings).run()
        assert reference.remaining == 0

    store_dir = tmp_path / "store"
    victim = subprocess.Popen(
        _worker_cli_command(store_dir, spec, "victim", ttl="1.0"),
        env=_subprocess_env(), stdout=subprocess.DEVNULL,
    )
    try:
        # Kill only once the victim has demonstrably checkpointed inside
        # its first method — that makes the takeover a *mid-method* resume.
        deadline = time.time() + 180.0
        while time.time() < deadline:
            if victim.poll() is not None:
                raise AssertionError("victim exited before the kill")
            if _checkpoint_rows(store_dir):
                break
            time.sleep(0.005)
        else:
            raise AssertionError("victim never wrote a checkpoint")
        victim.send_signal(signal.SIGKILL)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.wait()

    store = open_run_store("sqlite", store_dir)
    campaign = Campaign(spec, store, settings=settings)
    survivor = CampaignWorker(campaign, worker_id="survivor", ttl=1.0,
                              checkpoint_every=1, poll_interval=0.05)
    report = survivor.run()
    assert campaign.pending() == []
    assert report.resumed >= 1, report.summary()
    assert report.stolen == 0, report.summary()

    # Zero duplicated simulations: the victim completed no cell, and the
    # evaluations of the survivor's completed cells (a resumed record
    # carries its whole history) sum to exactly the grid's budget.
    budget = sum(
        1 if request.method == "human" else request.steps
        for request in campaign.requests()
    )
    assert report.evaluations == budget, report.summary()

    rows = _stripped_rows(store_dir)
    assert len(rows) == len(campaign.requests())
    assert rows == _stripped_rows(ref_dir), (
        "resumed records differ from the serial reference"
    )
    store.close()
    return report


class TestClusterEndToEnd:
    def test_sigkill_mid_method_survivor_resumes_bit_identical(self, tmp_path):
        # es first: population steps are slow enough that the kill lands
        # well inside the method after its first checkpoint.
        report = _run_kill_resume_scenario(
            tmp_path, methods=("es", "human", "random"), steps=64, seeds=1,
            victim_method="es",
        )
        assert report.executed == 3

    @pytest.mark.slow
    def test_full_seven_method_two_seed_acceptance(self, tmp_path):
        # The acceptance grid: 7 methods × 2 seeds.  gcn_rl first — its
        # per-episode network updates give the widest mid-method window.
        report = _run_kill_resume_scenario(
            tmp_path,
            methods=("gcn_rl", "human", "random", "es", "bo", "mace", "ng_rl"),
            steps=10, seeds=2, victim_method="gcn_rl",
        )
        assert report.executed >= 12  # human contributes 1 cell, not 2


class TestClusterLauncherAndCampaignRun:
    def test_campaign_run_workers_requires_directory_store(self):
        campaign = small_campaign(MemoryStore())
        with pytest.raises(ValueError, match="directory-backed"):
            campaign.run(workers=2)

    def test_campaign_run_workers_rejects_interruption_flags(self, tmp_path):
        with open_run_store("sqlite", tmp_path) as store:
            campaign = small_campaign(store)
            with pytest.raises(ValueError, match="incompatible"):
                campaign.run(workers=2, max_runs=1)

    def test_launcher_worker_command_is_joinable_cli(self, tmp_path):
        from repro.cluster import ClusterLauncher

        with open_run_store("sqlite", tmp_path) as store:
            campaign = small_campaign(store, methods=("random",), steps=4)
            launcher = ClusterLauncher(campaign, workers=2, ttl=5.0)
        command = launcher.worker_command(1)
        assert command[1:4] == ["-m", "repro.experiments", "worker"]
        assert command[command.index("--store-dir") + 1] == str(tmp_path)
        assert "--worker-id" in command
        assert command[command.index("--worker-id") + 1] == "worker1"
        spec_json = command[command.index("--spec") + 1]
        assert CampaignSpec.from_dict(json.loads(spec_json)).methods == ["random"]
        env = launcher._worker_env()
        assert env["REPRO_WARMUP_FRACTION"] == str(campaign.settings.warmup_fraction)

    def test_launcher_exports_the_campaign_evaluator_stack(self, tmp_path):
        from repro.cluster import ClusterLauncher

        settings = small_settings(("random",), steps=4)
        settings.eval_backend = "vectorized"
        settings.eval_cache_size = 16
        with open_run_store("sqlite", tmp_path) as store:
            campaign = Campaign(CampaignSpec.from_settings(settings), store, settings=settings)
            env = ClusterLauncher(campaign, workers=2)._worker_env()
        assert env["REPRO_EVAL_BACKEND"] == "vectorized"
        assert env["REPRO_EVAL_CACHE"] == "16"

    def test_launcher_refuses_memory_store_and_cell_list(self, tmp_path):
        from repro.cluster import ClusterLauncher

        with pytest.raises(ValueError, match="directory-backed"):
            ClusterLauncher(small_campaign(MemoryStore()))
        with open_run_store("sqlite", tmp_path) as store:
            cells = small_campaign(store).requests()
            with pytest.raises(ValueError, match="directory-backed"):
                ClusterLauncher(Campaign(None, store, cells=cells))

    def test_campaign_run_with_two_worker_processes(self, tmp_path):
        settings = small_settings(("human", "random"), steps=4, seeds=2)
        spec = CampaignSpec.from_settings(settings)
        with open_run_store("sqlite", tmp_path) as store:
            campaign = Campaign(spec, store, settings=settings)
            report = campaign.run(workers=2)
            assert report.remaining == 0
            assert report.executed == 3
            # The parent handle sees the workers' records.
            assert len(store) == 3
            # Second distributed run: everything is served from the store.
            again = Campaign(spec, store, settings=settings).run(workers=2)
            assert again.skipped == 3 and again.executed == 0


class TestClusterCLI:
    def _env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CIRCUITS", "two_tia")
        monkeypatch.setenv("REPRO_METHODS", "human,random")

    def test_worker_subcommand_drains_store(self, tmp_path, capsys, monkeypatch):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        assert cli_main([
            "worker", "--store-dir", store_dir, "--steps", "3", "--seeds", "1",
            "--worker-id", "cli-test", "--ttl", "5", "--poll", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "joining sweep" in out
        assert "executed=2" in out
        assert cli_main(["ls", "--store-dir", store_dir]) == 0
        assert "2 run(s)" in capsys.readouterr().out

    def test_worker_without_store_is_graceful(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["worker", "--steps", "3", "--seeds", "1"]) == 0
        assert "no store configured" in capsys.readouterr().out

    def test_worker_max_cells(self, tmp_path, capsys, monkeypatch):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        assert cli_main([
            "worker", "--store-dir", store_dir, "--steps", "3", "--seeds", "1",
            "--max-cells", "1",
        ]) == 0
        assert "executed=1" in capsys.readouterr().out

    def test_ls_status_shows_cell_states(self, tmp_path, capsys, monkeypatch):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        base = ["--store-dir", store_dir, "--steps", "3", "--seeds", "1"]
        assert cli_main(["worker"] + base + ["--max-cells", "1"]) == 0
        capsys.readouterr()
        assert cli_main(["ls", "--status"] + base) == 0
        out = capsys.readouterr().out
        assert "[done] human two_tia" in out
        assert "[pending] random two_tia" in out
        assert "cells: total=2 done=1 leased=0 expired=0 pending=1" in out

    def test_ls_status_shows_leases(self, tmp_path, capsys, monkeypatch):
        self._env(monkeypatch)
        store_dir = tmp_path / "store"
        settings = small_settings(("human", "random"), steps=3)
        spec = CampaignSpec.from_settings(settings)
        with open_run_store("sqlite", store_dir) as store:
            campaign = Campaign(spec, store, settings=settings)
            with lease_store_for(store) as leases:
                leases.claim(campaign.key_for(campaign.requests()[0]),
                             "someone:123:w9", 3600.0)
        assert cli_main([
            "ls", "--status", "--store-dir", str(store_dir),
            "--steps", "3", "--seeds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "[leased] human two_tia" in out
        assert "by someone:123:w9" in out
        assert "leased=1" in out

    def test_sweep_workers_flag_runs_distributed(self, tmp_path, capsys,
                                                 monkeypatch):
        self._env(monkeypatch)
        store_dir = str(tmp_path / "store")
        assert cli_main([
            "sweep", "--store-dir", store_dir, "--steps", "3", "--seeds", "1",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep complete: total=2 executed=2 skipped=0 remaining=0" in out
        # --workers on sweep must NOT have been eaten as an evaluator pool.
        assert (tmp_path / "store" / "runs.sqlite").exists()
