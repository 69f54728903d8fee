"""Chaos suite for the resilience layer (repro.resilience and friends).

Covers the failure taxonomy, the deterministic fault-injection harness, the
resilient evaluator (poison isolation via bisection, bounded retries,
NaN→nonconvergence, per-attempt deadlines, quarantine fail-fast, the
per-bucket circuit breaker), the service integration (per-client failure
isolation in coalesced batches, admission control, taxonomy on the wire,
client connection retry), and the cluster integration (heartbeat renew-error
accounting, poison-cell quarantine that drains instead of livelocking, a
campaign under injected faults finishing bit-identically to a fault-free
reference, and corrupt checkpoint blobs restarting the cell on all three
store backends).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.cluster import CampaignWorker, LeaseHeartbeat, cell_states, lease_store_for
from repro.eval import (
    EvalRequest,
    EvaluatorConfig,
    LocalEvaluator,
    request_cache_key,
)
from repro.eval.base import Evaluator
from repro.experiments import runner as runner_module
from repro.experiments.__main__ import main as cli_main
from repro.resilience import (
    FAILURE_KINDS,
    EvalFailure,
    EvalFailureError,
    EvalTimeoutError,
    FaultInjectingEvaluator,
    InjectedCrash,
    InjectedFault,
    ResilientEvaluator,
    RetryPolicy,
    classify_exception,
    is_nonconverged,
)
from repro.service import (
    BatchCoalescer,
    EvaluationError,
    OverloadedError,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.protocol import error_frame
from repro.store import Campaign, CampaignSpec, MemoryStore, open_run_store

STORE_BACKENDS = ("memory", "sqlite")


def _requests(count: int, seed: int = 7, circuit_name: str = "two_tia"):
    circuit = get_circuit(circuit_name, "180nm")
    rng = np.random.default_rng(seed)
    return [
        EvalRequest(circuit_name, "180nm", circuit.random_sizing(rng))
        for _ in range(count)
    ]


def _no_sleep(_delay: float) -> None:
    """Backoff stub: retries must not slow the suite down."""


def _poison(targets):
    """Predicate poisoning exactly the designs whose cache key is listed."""
    keys = set(targets)

    def predicate(request):
        return "error" if request_cache_key(request) in keys else None

    return predicate


class SlowEvaluator(Evaluator):
    """Wrapper that stalls every batch — deadline-enforcement fodder."""

    def __init__(self, inner: Evaluator, delay_s: float):
        self.inner = inner
        self._circuit = inner._circuit
        self._circuits = inner._circuits
        self.delay_s = float(delay_s)

    @property
    def stats(self):
        return self.inner.stats

    def evaluate_requests(self, requests):
        time.sleep(self.delay_s)
        return self.inner.evaluate_requests(requests)

    def peek(self, request):
        return self.inner.peek(request)

    def close(self):
        self.inner.close()


# --- taxonomy ---------------------------------------------------------------------
class TestTaxonomy:
    def test_classify_exception_precedence(self):
        assert classify_exception(InjectedFault("x")) == "injected"
        assert classify_exception(InjectedCrash("x")) == "worker_crash"
        assert classify_exception(EvalTimeoutError("x")) == "timeout"
        assert classify_exception(TimeoutError("x")) == "timeout"
        assert classify_exception(OSError("x")) == "worker_crash"
        assert classify_exception(ValueError("x")) == "simulator_error"

    def test_eval_failure_shape(self):
        request = _requests(1)[0]
        with pytest.raises(ValueError):
            EvalFailure(request=request, kind="gremlins", message="no")
        failure = EvalFailure(
            request=request, kind="timeout", message="slow", attempts=3
        )
        assert failure.retryable
        row = failure.to_dict()
        assert row["kind"] == "timeout" and row["attempts"] == 3
        assert row["circuit"] == "two_tia" and row["retryable"] is True
        # Deterministic failures are the one non-retryable kind.
        assert not EvalFailure(
            request=request, kind="nonconvergence", message="nan"
        ).retryable
        assert set(FAILURE_KINDS) == {
            "nonconvergence", "timeout", "simulator_error",
            "worker_crash", "injected",
        }

    def test_is_nonconverged_flags_nan_only(self):
        assert is_nonconverged({"gain": float("nan"), "bw": 1.0})
        # -inf dB from log10(0) is a legitimate measurement, not a failure.
        assert not is_nonconverged({"gain": float("-inf"), "bw": 1.0})
        assert not is_nonconverged({"gain": 10.0, "bw": 1.0})


# --- chaos harness ----------------------------------------------------------------
class TestChaosHarness:
    def test_fault_decisions_are_pure_in_seed_and_design(self):
        requests = _requests(40, seed=3)
        rates = dict(error_rate=0.15, nan_rate=0.1, timeout_rate=0.05)
        one = FaultInjectingEvaluator(LocalEvaluator(), seed=9, **rates)
        two = FaultInjectingEvaluator(LocalEvaluator(), seed=9, **rates)
        decisions = {request_cache_key(r): one.fault_for(r) for r in requests}
        # Same (seed, design) -> same fault, in any order, on any instance.
        for request in reversed(requests):
            assert two.fault_for(request) == decisions[request_cache_key(request)]
        other_seed = FaultInjectingEvaluator(LocalEvaluator(), seed=10, **rates)
        assert any(
            other_seed.fault_for(r) != decisions[request_cache_key(r)]
            for r in requests
        )
        faulted = sum(1 for fault in decisions.values() if fault is not None)
        assert 0 < faulted < len(requests)

    def test_rate_edges(self):
        requests = _requests(8)
        everything = FaultInjectingEvaluator(LocalEvaluator(), error_rate=1.0)
        assert all(everything.fault_for(r) == "error" for r in requests)
        nothing = FaultInjectingEvaluator(LocalEvaluator())
        assert all(nothing.fault_for(r) is None for r in requests)
        with pytest.raises(ValueError):
            FaultInjectingEvaluator(LocalEvaluator(), error_rate=0.7, nan_rate=0.5)

    def test_transient_faults_recover_after_n_attempts(self):
        request = _requests(1)[0]
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(),
            error_rate=1.0,
            transient_attempts=2,
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                chaos.evaluate_requests([request])
        results = chaos.evaluate_requests([request])
        assert math.isfinite(next(iter(results[0].metrics.values())))
        assert chaos.injected["error"] == 2


# --- the resilient evaluator ------------------------------------------------------
class TestResilientEvaluator:
    def test_clean_batch_is_one_inner_call_with_zero_recovery(self):
        requests = _requests(6)
        inner = LocalEvaluator()
        resilient = ResilientEvaluator(inner, sleep=_no_sleep)
        before = inner.stats.num_batches
        outcomes = resilient.evaluate_outcomes(requests)
        assert inner.stats.num_batches == before + 1
        assert all(not isinstance(o, EvalFailure) for o in outcomes)
        assert all(value == 0 for value in resilient.rstats.to_dict().values())

    def test_poison_isolated_and_rest_bit_identical(self):
        requests = _requests(8, seed=5)
        poison_key = request_cache_key(requests[3])
        reference = LocalEvaluator().evaluate_requests(requests)
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(), predicate=_poison([poison_key])
        )
        resilient = ResilientEvaluator(
            chaos,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            sleep=_no_sleep,
        )
        outcomes = resilient.evaluate_outcomes(requests)
        for index, outcome in enumerate(outcomes):
            if index == 3:
                assert isinstance(outcome, EvalFailure)
                assert outcome.kind == "injected" and outcome.attempts == 2
            else:
                assert outcome.metrics == reference[index].metrics
        assert resilient.rstats.bisections >= 1
        assert resilient.rstats.failures == 1
        assert resilient.rstats.quarantined == 1

    def test_transient_fault_in_batch_recovers_during_isolation(self):
        """A fault that clears after one attempt is healed by the first
        bucket-level re-attempt — no failure, no serial downgrade."""
        requests = _requests(4, seed=6)
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(),
            predicate=_poison([request_cache_key(requests[1])]),
            transient_attempts=1,
        )
        resilient = ResilientEvaluator(
            chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            sleep=_no_sleep,
        )
        outcomes = resilient.evaluate_outcomes(requests)
        assert all(not isinstance(o, EvalFailure) for o in outcomes)
        assert resilient.rstats.failures == 0

    def test_transient_fault_retried_to_success_on_serial_path(self):
        request = _requests(1, seed=6)[0]
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(),
            predicate=_poison([request_cache_key(request)]),
            transient_attempts=2,
        )
        resilient = ResilientEvaluator(
            chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            sleep=_no_sleep,
        )
        outcomes = resilient.evaluate_outcomes([request])
        assert not isinstance(outcomes[0], EvalFailure)
        assert resilient.rstats.retries == 1
        assert resilient.rstats.serial_downgrades == 1
        assert resilient.rstats.failures == 0

    def test_nan_metrics_become_nonconvergence_without_retry(self):
        requests = _requests(3, seed=8)
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(),
            predicate=lambda r: (
                "nan" if request_cache_key(r) == request_cache_key(requests[0])
                else None
            ),
        )
        resilient = ResilientEvaluator(chaos, sleep=_no_sleep)
        outcomes = resilient.evaluate_outcomes(requests)
        assert isinstance(outcomes[0], EvalFailure)
        assert outcomes[0].kind == "nonconvergence"
        assert not outcomes[0].retryable
        # NaN is deterministic: no retries were burned on it.
        assert resilient.rstats.retries == 0
        assert not isinstance(outcomes[1], EvalFailure)

    def test_deadline_classifies_as_timeout(self):
        request = _requests(1, seed=9)[0]
        resilient = ResilientEvaluator(
            SlowEvaluator(LocalEvaluator(), delay_s=5.0),
            policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, jitter=0.0, deadline_s=0.05
            ),
            sleep=_no_sleep,
        )
        outcome = resilient.evaluate_outcomes([request])[0]
        assert isinstance(outcome, EvalFailure)
        assert outcome.kind == "timeout" and outcome.attempts == 2
        assert resilient.rstats.retries == 1

    def test_quarantine_fails_fast_on_resubmission(self):
        requests = _requests(2, seed=10)
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(), predicate=_poison([request_cache_key(requests[0])])
        )
        resilient = ResilientEvaluator(
            chaos,
            policy=RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0),
            sleep=_no_sleep,
        )
        first = resilient.evaluate_outcomes(requests)
        assert isinstance(first[0], EvalFailure) and first[0].attempts == 1
        attempts_before = chaos.injected["error"]
        second = resilient.evaluate_outcomes(requests)
        assert isinstance(second[0], EvalFailure)
        assert second[0].attempts == 0
        assert second[0].message.startswith("quarantined:")
        # Fail-fast means the poison never reached the inner stack again.
        assert chaos.injected["error"] == attempts_before
        assert resilient.rstats.quarantine_hits == 1
        assert len(resilient.quarantine) == 1
        resilient.clear_quarantine()
        assert resilient.quarantine == []

    def test_breaker_trips_serial_cooldown_then_recovers(self):
        poisoned = [True]
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(),
            predicate=lambda r: "error" if poisoned[0] else None,
        )
        resilient = ResilientEvaluator(
            chaos,
            policy=RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0),
            breaker_threshold=2,
            breaker_cooldown=2,
            sleep=_no_sleep,
        )
        bucket = ("two_tia", "180nm")
        # Two consecutive failed group attempts trip the bucket breaker.
        resilient.evaluate_outcomes(_requests(2, seed=20))
        assert not resilient.breaker_open(bucket)
        resilient.evaluate_outcomes(_requests(2, seed=21))
        assert resilient.breaker_open(bucket)
        assert resilient.rstats.breaker_trips == 1
        # While open: the serial per-request path, no grouped attempts.
        poisoned[0] = False
        serial_before = resilient.rstats.serial_downgrades
        healthy = resilient.evaluate_outcomes(_requests(2, seed=22))
        assert all(not isinstance(o, EvalFailure) for o in healthy)
        assert resilient.rstats.serial_downgrades == serial_before + 2
        resilient.evaluate_outcomes(_requests(2, seed=23))
        # Cooldown elapsed (2 bucket-calls): the grouped path is probed and
        # succeeds, closing the breaker for good.
        assert not resilient.breaker_open(bucket)
        serial_before = resilient.rstats.serial_downgrades
        recovered = resilient.evaluate_outcomes(_requests(2, seed=24))
        assert all(not isinstance(o, EvalFailure) for o in recovered)
        assert resilient.rstats.serial_downgrades == serial_before

    def test_strict_adapter_raises_with_taxonomy(self):
        requests = _requests(2, seed=11)
        chaos = FaultInjectingEvaluator(
            LocalEvaluator(), predicate=_poison([request_cache_key(requests[1])])
        )
        resilient = ResilientEvaluator(
            chaos,
            policy=RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0),
            sleep=_no_sleep,
        )
        with pytest.raises(EvalFailureError) as excinfo:
            resilient.evaluate_requests(requests)
        assert excinfo.value.failure.kind == "injected"


# --- service integration ----------------------------------------------------------
class TestServiceResilience:
    def test_one_poisoned_client_in_coalesced_batch_fails_alone(self):
        """8 concurrent clients share coalesced batches; the single client
        whose design is poisoned gets the taxonomy-carrying error, the
        other 7 succeed bit-identically to direct evaluation."""
        n_clients = 8
        config = ServiceConfig(
            port=0,
            linger_ms=150.0,
            eval_attempts=2,
            chaos_rate=1e-15,  # instantiate the harness; never self-fires
            chaos_transient=0,
        )
        circuit = get_circuit("two_tia", "180nm")
        rng = np.random.default_rng(31)
        sizings = [circuit.random_sizing(rng) for _ in range(n_clients)]
        poison_index = 2
        poison_key = request_cache_key(
            EvalRequest("two_tia", "180nm", sizings[poison_index])
        )
        reference_eval = config.evaluator_config().build()
        reference = reference_eval.evaluate_requests(
            [EvalRequest("two_tia", "180nm", s) for s in sizings]
        )
        reference_eval.close()

        with ServerThread(config) as server:
            chaos = server.service.coalescer.evaluator.inner
            assert isinstance(chaos, FaultInjectingEvaluator)
            chaos.predicate = _poison([poison_key])

            barrier = threading.Barrier(n_clients)
            outputs = [None] * n_clients
            failures = [None] * n_clients

            def worker(index: int):
                try:
                    with ServiceClient(port=server.port) as client:
                        barrier.wait(timeout=30)
                        outputs[index] = client.evaluate(
                            "two_tia", [sizings[index]]
                        )
                except ServiceError as error:
                    failures[index] = error

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            snapshot = server.service.coalescer.snapshot()

        for index in range(n_clients):
            if index == poison_index:
                assert outputs[index] is None
                error = failures[index]
                assert error is not None
                assert error.kind == "injected"
                assert error.retryable is True
                assert error.attempts == 2
            else:
                assert failures[index] is None, failures[index]
                metrics = outputs[index][0]["metrics"]
                assert metrics == reference[index].metrics
        assert snapshot["coalescer"]["failures"] == 1
        assert snapshot["resilience"]["quarantined"] == 1
        assert snapshot["chaos"]["error"] >= 1

    def test_admission_control_rejects_with_retryable_overloaded(self):
        circuit = get_circuit("two_tia", "180nm")
        rng = np.random.default_rng(17)
        sizings = [circuit.random_sizing(rng) for _ in range(3)]

        async def scenario():
            coalescer = BatchCoalescer(
                EvaluatorConfig(cache_size=64), linger_s=0.0, max_pending=2
            )
            try:
                with pytest.raises(OverloadedError) as excinfo:
                    await coalescer.submit("two_tia", "180nm", sizings)
                assert excinfo.value.kind == "overloaded"
                assert excinfo.value.retryable is True
                assert coalescer.stats.rejected == 1
                # Within the bound the funnel still serves.
                results = await coalescer.submit(
                    "two_tia", "180nm", sizings[:2]
                )
                assert len(results) == 2
            finally:
                coalescer.close()

        asyncio.run(scenario())

    def test_error_frame_carries_taxonomy(self):
        frame = error_frame(
            "boom", request_id=4, kind="timeout", retryable=True, attempts=3
        )
        assert frame["kind"] == "timeout"
        assert frame["retryable"] is True and frame["attempts"] == 3
        bare = error_frame("boom")
        assert "kind" not in bare and "retryable" not in bare

    def test_client_connect_retry_exhaustion_and_recovery(self, monkeypatch):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: sleeps.append(s)
        )
        client = ServiceClient(port=port, retry=3, retry_base_delay_s=0.05)
        with pytest.raises(OSError):
            client._connect()
        assert len(sleeps) == 2  # backoff between the 3 attempts
        assert sleeps[1] > sleeps[0]  # exponential

        # A listener appearing mid-backoff (server restart) is survived.
        listener = socket.socket()

        def listen_now(delay):
            sleeps.append(delay)
            if listener.fileno() != -1 and not getattr(listen_now, "armed", False):
                listener.bind(("127.0.0.1", port))
                listener.listen(1)
                listen_now.armed = True

        monkeypatch.setattr("repro.service.client.time.sleep", listen_now)
        late = ServiceClient(port=port, retry=5, retry_base_delay_s=0.01)
        try:
            late._connect()
            assert late._sock is not None
        finally:
            late.close()
            listener.close()
        with pytest.raises(ValueError):
            ServiceClient(port=port, retry=0)


# --- cluster integration ----------------------------------------------------------
class FlakyLeaseStore:
    """Lease-store stand-in whose renew errors on command."""

    def __init__(self):
        self.fail = False
        self.renews = 0

    def renew(self, key, owner, ttl):
        self.renews += 1
        if self.fail:
            raise OSError("store unreachable")
        return True


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


class TestClusterResilience:
    def test_heartbeat_accumulated_renew_errors_mark_lost(self):
        store = FlakyLeaseStore()
        store.fail = True
        from repro.store import make_run_key

        key = make_run_key("random", "two_tia", "180nm", 5, 0)
        heartbeat = LeaseHeartbeat(store, key, "w0", ttl=0.2, interval=0.02)
        heartbeat.start()
        heartbeat.join(timeout=10)
        assert not heartbeat.is_alive()
        assert heartbeat.lost
        assert heartbeat.consecutive_errors >= 2

    def test_heartbeat_transient_renew_error_recovers(self):
        store = FlakyLeaseStore()
        from repro.store import make_run_key

        key = make_run_key("random", "two_tia", "180nm", 5, 0)
        heartbeat = LeaseHeartbeat(store, key, "w0", ttl=5.0, interval=0.02)
        store.fail = True
        heartbeat.start()
        time.sleep(0.1)
        store.fail = False
        time.sleep(0.1)
        assert not heartbeat.lost
        assert heartbeat.consecutive_errors == 0
        heartbeat.stop()

    def test_poison_cell_quarantined_and_sweep_drains(self, capsys):
        spec = tiny_spec(circuits=["two_tia", "ldo"], methods=["human"], seeds=1)
        store = MemoryStore()
        campaign = Campaign(spec, store)
        chaos = FaultInjectingEvaluator(
            EvaluatorConfig().build(),
            predicate=lambda r: "error" if r.circuit == "ldo" else None,
        )
        outcomes = []
        worker = CampaignWorker(
            campaign,
            evaluator=chaos,
            checkpoint_every=1,
            poll_interval=0.01,
            cell_retries=2,
            retry_backoff_s=0.0,
            progress=lambda _a, outcome: outcomes.append(outcome),
        )
        report = worker.run()
        assert report.executed == 1 and report.quarantined == 1
        assert "quarantined=1" in report.summary()
        assert "quarantined" in outcomes

        poisoned = [r for r in campaign.requests() if r.circuit == "ldo"][0]
        info = store.get_quarantine(campaign.key_for(poisoned))
        assert info is not None
        assert info["kind"] == "injected" and info["attempts"] == 2
        assert info["worker"] == worker.worker_id

        # The sweep is drained, not livelocked: status accounts for the
        # poison, the scheduler never hands it out again, and a second
        # worker run is an immediate no-op.
        assert campaign.pending() == [] and campaign.quarantined() == [poisoned]
        states = cell_states(campaign, lease_store_for(store))
        assert sorted(s.state for s in states) == ["done", "quarantined"]
        rerun = CampaignWorker(campaign, poll_interval=0.01).run()
        assert rerun.executed == 0 and rerun.quarantined == 0

        # Lifting the quarantine frees the cell again.
        store.delete_quarantine(campaign.key_for(poisoned))
        assert campaign.pending() == [poisoned]

    def test_ls_status_reports_quarantined_cells(self, tmp_path, capsys):
        spec = tiny_spec()
        with open_run_store("sqlite", tmp_path / "store") as store:
            campaign = Campaign(spec, store)
            key = campaign.key_for(campaign.requests()[0])
            store.put_quarantine(key, {"kind": "injected", "message": "x"})
        capsys.readouterr()
        code = cli_main(
            [
                "ls",
                "--status",
                "--store-dir",
                str(tmp_path / "store"),
                "--spec",
                json.dumps(spec.to_dict()),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[quarantined]" in out
        assert (
            "cells: total=3 done=0 leased=0 expired=0 "
            "pending=2 quarantined=1" in out
        )

    def test_campaign_under_chaos_matches_fault_free_reference(self):
        spec = tiny_spec()
        reference_store = MemoryStore()
        reference = Campaign(spec, reference_store).run()
        assert reference.remaining == 0

        store = MemoryStore()
        campaign = Campaign(spec, store)
        chaos = FaultInjectingEvaluator(
            EvaluatorConfig().build(),
            seed=8,
            error_rate=0.25,
            transient_attempts=1,
        )
        worker = CampaignWorker(
            campaign,
            evaluator=chaos,
            checkpoint_every=1,
            poll_interval=0.01,
            cell_retries=8,
            retry_backoff_s=0.0,
        )
        report = worker.run()
        assert report.executed == 3 and report.quarantined == 0
        assert campaign.pending() == []
        # The harness verifiably injected something (or this test is vacuous
        # for the chosen seed) — and every record is still bit-identical.
        assert sum(chaos.injected.values()) >= 1
        for request in campaign.requests():
            key = campaign.key_for(request)
            ours = store.get(key).to_dict()
            ref = reference_store.get(key).to_dict()
            ours.pop("wall_time_s"), ref.pop("wall_time_s")
            assert ours == ref

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_corrupt_checkpoint_logs_and_restarts_cell(
        self, backend, tmp_path, caplog
    ):
        spec = tiny_spec(methods=["random"], seeds=1)
        reference_store = MemoryStore()
        Campaign(spec, reference_store).run()

        with open_run_store(backend, tmp_path / "store") as store:
            campaign = Campaign(spec, store)
            key = campaign.key_for(campaign.requests()[0])
            store.put_checkpoint(key, b"\x80\x04 not a checkpoint")
            with caplog.at_level("WARNING"):
                report = campaign.run()
            assert report.executed == 1 and report.remaining == 0
            assert any(
                "corrupt checkpoint" in message for message in caplog.messages
            )
            assert store.get_checkpoint(key) is None
            ours = store.get(key).to_dict()
            ref = reference_store.get(key).to_dict()
            ours.pop("wall_time_s"), ref.pop("wall_time_s")
            assert ours == ref

    def test_versioned_checkpoint_mismatch_still_raises(self, tmp_path):
        import pickle

        spec = tiny_spec(methods=["random"], seeds=1)
        store = MemoryStore()
        campaign = Campaign(spec, store)
        key = campaign.key_for(campaign.requests()[0])
        store.put_checkpoint(key, pickle.dumps({"version": 999}))
        # Unlike a corrupt blob, a version mismatch is never discarded: the
        # run raises on every attempt and the cell ends quarantined.
        report = campaign.run()
        assert report.quarantined == 1 and report.executed == 0
        assert "quarantined=1" in report.summary()
        info = store.get_quarantine(key)
        assert "checkpoint version" in info["message"]
        assert info["attempts"] == 3
        assert store.get(key) is None
        assert store.get_checkpoint(key) is not None
