"""Chaos suite for the resilience layer (repro.resilience and friends).

Covers the failure taxonomy, the deterministic fault-injection harness, the
resilient evaluator (request validation, poison isolation via bisection,
retries for transient kinds only, NaN→nonconvergence, quarantine
fail-fast), the service integration (per-client failure isolation in
coalesced batches, invalid sizings refused unsimulated, admission control,
taxonomy on the wire, client connection retry), and the cluster integration
(heartbeat renew-error accounting, poison-cell quarantine that drains
instead of livelocking, a campaign under injected faults finishing
bit-identically to a fault-free reference, and corrupt checkpoint blobs
restarting the cell on both store backends).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.circuits import get_circuit, list_circuits
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
from repro.technology import list_nodes

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


class RecordingEvaluator(Evaluator):
    """Wrapper recording the size of every inner call; designs whose cache
    key is in ``fail_keys`` make the whole call raise an untagged
    ``RuntimeError``, like a solver bug would."""

    def __init__(self, inner: Evaluator, fail_keys=()):
        self.inner = inner
        self._circuit = inner._circuit
        self._circuits = inner._circuits
        self.fail_keys = set(fail_keys)
        self.calls = []

    @property
    def stats(self):
        return self.inner.stats

    def evaluate_requests(self, requests):
        requests = list(requests)
        self.calls.append(len(requests))
        if any(request_cache_key(r) in self.fail_keys for r in requests):
            raise RuntimeError("singular matrix in the stamped solve")
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
            "worker_crash", "injected", "invalid_request",
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

    def test_untagged_engine_error_fails_once_after_isolation(self):
        requests = _requests(8, seed=13)
        reference = LocalEvaluator().evaluate_requests(requests)
        inner = RecordingEvaluator(
            LocalEvaluator(), fail_keys=[request_cache_key(requests[4])]
        )
        sleeps = []
        resilient = ResilientEvaluator(inner, sleep=sleeps.append)
        outcomes = resilient.evaluate_outcomes(requests)
        failure = outcomes[4]
        assert isinstance(failure, EvalFailure)
        assert failure.kind == "simulator_error" and failure.attempts == 1
        assert not failure.retryable and not failure.to_dict()["retryable"]
        # A deterministic engine error reproduces: no retry, no backoff.
        assert resilient.rstats.retries == 0 and sleeps == []
        assert resilient.rstats.bisections >= 1
        for index, outcome in enumerate(outcomes):
            if index != 4:
                assert outcome.metrics == reference[index].metrics

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


# --- request validation -----------------------------------------------------------
def _set(component, name, value):
    def mutate(sizing):
        sizing[component][name] = value

    return mutate


#: name -> (circuit, technology, in-place mutation of a valid two_tia sizing).
INVALID_REQUESTS = {
    "missing-component": ("two_tia", "180nm", lambda s: s.pop("T1")),
    "extra-component": ("two_tia", "180nm", lambda s: s.update(T9=dict(s["T1"]))),
    "missing-parameter": ("two_tia", "180nm", lambda s: s["T1"].pop("w")),
    "extra-parameter": ("two_tia", "180nm", _set("T1", "vth", 0.4)),
    "zero": ("two_tia", "180nm", _set("T1", "w", 0.0)),
    "negative": ("two_tia", "180nm", _set("T1", "w", -2e-6)),
    "nan": ("two_tia", "180nm", _set("T1", "w", float("nan"))),
    "inf": ("two_tia", "180nm", _set("T1", "w", float("inf"))),
    "numeric-string": ("two_tia", "180nm", _set("T1", "w", "2e-6")),
    "word-string": ("two_tia", "180nm", _set("T1", "w", "wide")),
    "bool": ("two_tia", "180nm", _set("T1", "m", True)),
    "unknown-circuit": ("no_such_circuit", "180nm", lambda s: None),
    "unknown-technology": ("two_tia", "7nm", lambda s: None),
}


class TestRequestValidation:
    def test_bad_sizing_skips_the_stacked_batch(self):
        requests = _requests(16, seed=14)
        del requests[5].sizing["T1"]
        good = [r for i, r in enumerate(requests) if i != 5]
        reference = EvaluatorConfig(backend="vectorized").build().evaluate_requests(good)
        inner = EvaluatorConfig(backend="vectorized").build()
        resilient = ResilientEvaluator(inner, RetryPolicy(), sleep=_no_sleep)
        outcomes = resilient.evaluate_outcomes(requests)
        # One inner call, of the 15 valid designs.
        assert inner.stats.num_batches == 1
        assert inner.stats.num_designs == 15
        bad = outcomes[5]
        assert isinstance(bad, EvalFailure)
        assert bad.kind == "invalid_request" and bad.attempts == 0
        assert "T1" in bad.message and not bad.retryable
        served = [o for i, o in enumerate(outcomes) if i != 5]
        assert [o.metrics for o in served] == [r.metrics for r in reference]
        assert resilient.quarantine == []
        assert resilient.rstats.quarantined == 0 and resilient.rstats.retries == 0

    @pytest.mark.parametrize("case", sorted(INVALID_REQUESTS))
    def test_invalid_request_is_refused_unsimulated(self, case):
        circuit, technology, mutate = INVALID_REQUESTS[case]
        sizing = _requests(1, seed=15)[0].sizing
        mutate(sizing)
        request = EvalRequest(circuit, technology, sizing)
        inner = RecordingEvaluator(LocalEvaluator())
        resilient = ResilientEvaluator(inner, sleep=_no_sleep)
        for _ in range(2):  # never quarantined: the second try is refused alike
            outcome = resilient.evaluate_outcomes([request])[0]
            assert isinstance(outcome, EvalFailure)
            assert outcome.kind == "invalid_request" and outcome.attempts == 0
            assert outcome.message.startswith("invalid request:")
        assert inner.calls == []
        assert resilient.quarantine == []
        with pytest.raises(EvalFailureError):
            resilient.evaluate_requests([request])

    def test_expert_and_random_sizings_pass_every_circuit_and_node(self):
        """The check leaves the parameter box alone: the LDO's expert
        ``T7.l`` sits below the 180 nm floor at 65 nm and 45 nm."""
        rng = np.random.default_rng(16)
        for name in list_circuits():
            for node in list_nodes():
                circuit = get_circuit(name, node)
                space = circuit.parameter_space
                space.check_sizing(circuit.expert_sizing())
                for _ in range(8):
                    space.check_sizing(circuit.random_sizing(rng))
        ldo = get_circuit("ldo", "65nm")
        floor = ldo.parameter_space.component_definitions("T7")[1].lower
        assert ldo.expert_sizing()["T7"]["l"] < floor


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

    @pytest.mark.parametrize("width", [-2e-6, None])
    def test_invalid_sizing_refused_over_ndjson_and_http(self, width):
        sizing = _requests(1, seed=18)[0].sizing
        sizing["T1"]["w"] = width
        body = json.dumps(
            {"circuit": "two_tia", "technology": "180nm", "sizings": [sizing]}
        ).encode("utf-8")
        with ServerThread(ServiceConfig(port=0, linger_ms=5.0)) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.evaluate("two_tia", [sizing])
                assert excinfo.value.kind == "invalid_request"
                assert excinfo.value.retryable is False
                assert excinfo.value.attempts == 0
                request = urllib.request.Request(
                    f"http://127.0.0.1:{server.port}/evaluate",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as http_error:
                    urllib.request.urlopen(request)
                assert http_error.value.code == 400
                payload = json.load(http_error.value)
                assert payload["kind"] == "invalid_request"
                assert payload["retryable"] is False
                with pytest.raises(ServiceError) as excinfo:
                    client.evaluate("no_such_circuit", [sizing])
                assert excinfo.value.kind == "invalid_request"
                stats = client.stats()
        assert stats["evaluator"]["num_simulations"] == 0
        assert stats["resilience"]["quarantined"] == 0

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
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
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
            retry=RetryPolicy(max_attempts=8, base_delay_s=0.0),
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
