"""Cross-client batch coalescing: many evaluate requests, few simulator calls.

The server's evaluate path is a micro-batching funnel.  Submissions from all
clients — whatever circuit or technology they target — join *one* pending
queue of :class:`~repro.eval.base.EvalRequest` units and share a tiny linger
window: the first pending design arms a flush task that sleeps ``linger_ms``
and then evaluates *everything* that queued up in the meantime as one
:meth:`~repro.eval.Evaluator.evaluate_requests` call.  The evaluator itself
buckets the mixed batch by (circuit, technology) — the
:class:`~repro.spice.batch.BatchTemplate` compatibility key — so with the
vectorized backend, cross-client *and* cross-circuit traffic co-batches
into a few dense stacked solves, and a busy server naturally converges to
"one batch per simulator latency" regardless of client count.

Two dedup layers guarantee no design is ever simulated twice:

* **in-flight dedup** — submissions are keyed by the canonical
  :func:`~repro.eval.request_cache_key`; a design already queued or already
  being simulated attaches to the existing future instead of re-entering
  the batch.
* **stored-result dedup** — the shared evaluator is wrapped in a
  :class:`~repro.eval.CachingEvaluator` keyed by the *same* function;
  :meth:`Evaluator.peek` serves already-simulated designs immediately,
  without even waiting for the linger window.

All bookkeeping runs on the event loop (single-threaded); only
``evaluate_requests`` itself is pushed to a worker thread.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.circuits.library import get_circuit
from repro.circuits.parameters import Sizing
from repro.eval import EvaluatorConfig, request_cache_key
from repro.eval.base import EvalRequest, Evaluator, ThreadSafeCounters
from repro.resilience import (
    EvalFailure,
    FaultInjectingEvaluator,
    ResilientEvaluator,
    RetryPolicy,
)


class EvaluationError(RuntimeError):
    """One design's evaluation terminally failed; carried to *its* waiters.

    Attributes:
        kind: Failure-taxonomy kind (see
            :data:`repro.resilience.FAILURE_KINDS`, plus ``overloaded``
            for admission-control rejections).
        retryable: Whether resubmitting the same request may succeed.
        attempts: Evaluation attempts spent server-side before giving up.
    """

    def __init__(
        self,
        message: str,
        kind: str = "simulator_error",
        retryable: bool = False,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable
        self.attempts = int(attempts)


class OverloadedError(EvaluationError):
    """The pending queue is full; the client should back off and retry."""

    def __init__(self, message: str):
        super().__init__(message, kind="overloaded", retryable=True)


@dataclass
class CoalescerStats(ThreadSafeCounters):
    """Counters describing how well cross-client batching is working.

    All mutation happens on the event loop today, but the counters inherit
    :class:`ThreadSafeCounters` like every other stats object so snapshot
    reads (the ``stats`` RPC, checkpoint encoding) are torn-read-free even
    if a future flush path moves off-loop.

    Attributes:
        requests: Evaluate requests served.
        designs_submitted: Designs across all requests (incl. duplicates).
        designs_flushed: Designs that entered a simulator batch (post-dedup).
        batches_issued: ``evaluate_requests`` calls actually made.
        inflight_hits: Designs that attached to an already-queued/running
            future instead of re-entering a batch.
        peek_hits: Designs served instantly from the shared result cache.
        failures: Designs resolved with a terminal :class:`EvaluationError`
            (only their own waiters see it; batchmates are unaffected).
        rejected: Requests refused by admission control (``overloaded``).
    """

    requests: int = 0
    designs_submitted: int = 0
    designs_flushed: int = 0
    batches_issued: int = 0
    inflight_hits: int = 0
    peek_hits: int = 0
    failures: int = 0
    rejected: int = 0

    @property
    def coalescing_factor(self) -> float:
        """Mean designs per simulator batch (1.0 = no coalescing benefit)."""
        if self.batches_issued == 0:
            return 0.0
        return self.designs_flushed / self.batches_issued

    def to_dict(self) -> Dict[str, float]:
        with self.lock:
            return {
                "requests": self.requests,
                "designs_submitted": self.designs_submitted,
                "designs_flushed": self.designs_flushed,
                "batches_issued": self.batches_issued,
                "inflight_hits": self.inflight_hits,
                "peek_hits": self.peek_hits,
                "failures": self.failures,
                "rejected": self.rejected,
                "coalescing_factor": round(self.coalescing_factor, 4),
            }


class BatchCoalescer:
    """Merges concurrent evaluate submissions into shared simulator batches.

    One shared (unbound) evaluator serves every circuit and technology the
    clients ask for; mixed batches are bucketed inside the evaluator, so the
    coalescer itself only keeps a single pending queue and a single flush
    loop.

    Args:
        evaluator_config: Stack the shared evaluator is built with; a
            positive ``cache_size`` enables stored-result dedup.
        linger_s: Seconds a freshly-armed flush waits for more submissions.
        max_batch: Designs per issued evaluator batch (larger pending sets
            drain over several back-to-back batches).
        max_pending: Admission-control bound on queued designs; a submit
            that would overflow it is rejected with a retryable
            :class:`OverloadedError` (0 = unbounded).
        retry_policy: Retry/backoff policy of the resilient wrapper
            around the shared evaluator (default
            :class:`~repro.resilience.RetryPolicy`).  The wrapper also
            validates every design, so a malformed sizing fails as
            ``invalid_request`` without being simulated.
        chaos: Optional :class:`~repro.resilience.FaultInjectingEvaluator`
            kwargs (``seed``, ``error_rate``, ...).  When given, the chaos
            harness is wrapped *between* the resilient layer and the
            evaluator stack, so injected faults exercise the real recovery
            machinery end-to-end.
    """

    def __init__(
        self,
        evaluator_config: Optional[EvaluatorConfig] = None,
        linger_s: float = 0.01,
        max_batch: int = 64,
        max_pending: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        chaos: Optional[Mapping[str, Any]] = None,
    ):
        self.evaluator_config = evaluator_config or EvaluatorConfig(cache_size=4096)
        self.linger_s = float(linger_s)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.stats = CoalescerStats()
        # Resilience wraps *outside* the cache (failures are never cached)
        # and outside the chaos harness (injected faults must hit the real
        # retry/bisection/quarantine machinery, not bypass it).
        inner: Evaluator = self.evaluator_config.build()
        if chaos:
            inner = FaultInjectingEvaluator(inner, **dict(chaos))
        self.evaluator: ResilientEvaluator = ResilientEvaluator(
            inner, policy=retry_policy
        )
        #: Deduped designs awaiting the next batch: (key, request, future).
        self._pending: List[Tuple[tuple, EvalRequest, asyncio.Future]] = []
        #: Every queued-or-simulating design, keyed like the result cache.
        self._inflight: Dict[tuple, asyncio.Future] = {}
        self._flusher: Optional[asyncio.Task] = None
        #: (circuit, technology) pairs seen so far — eager validation plus
        #: the ``stats`` endpoint's bucket listing.
        self._seen: Set[Tuple[str, str]] = set()
        self._closed = False

    def evaluator_stats(self) -> Dict[str, float]:
        """Counters of the shared evaluator stack."""
        stats = self.evaluator.stats.to_dict()
        stats.pop("hit_rate", None)
        return stats

    # --- submission ---------------------------------------------------------------
    async def submit(
        self, circuit_name: str, technology: str, sizings: List[Sizing]
    ) -> List[Dict[str, Any]]:
        """Evaluate ``sizings`` through the coalescing funnel.

        Returns one ``{"sizing", "metrics", "cached"}`` dict per input, in
        input order.  ``cached`` is true when the design was served without
        a fresh simulation (result cache, or shared with another waiter).

        A design that terminally fails raises :class:`EvaluationError`
        (carrying the failure taxonomy) from *this* call only — batchmates
        sharing the simulator batch resolve normally.
        """
        if self._closed:
            raise EvaluationError("coalescer is closed")
        if (
            self.max_pending > 0
            and len(self._pending) + len(sizings) > self.max_pending
        ):
            with self.stats.lock:
                self.stats.rejected += 1
            raise OverloadedError(
                f"server overloaded: {len(self._pending)} design(s) pending "
                f"(max_pending={self.max_pending}); retry after backoff"
            )
        loop = asyncio.get_running_loop()
        bucket = (circuit_name.lower(), technology)
        requests = [EvalRequest(circuit_name, technology, s) for s in sizings]
        try:
            if bucket not in self._seen:
                # Fail unknown circuit/technology pairs fast, before they queue.
                get_circuit(circuit_name, technology)
                self._seen.add(bucket)
            # So does a value the dedup key cannot read as a number; the
            # resilient wrapper refuses every other malformed sizing.
            keys = [request_cache_key(request) for request in requests]
        except (KeyError, TypeError, ValueError) as error:
            raise EvaluationError(
                f"invalid request: {error.args[0]}", kind="invalid_request"
            ) from None
        with self.stats.lock:
            self.stats.requests += 1
            self.stats.designs_submitted += len(sizings)

        waiters: List[Tuple[Sizing, asyncio.Future, bool]] = []
        for sizing, request, key in zip(sizings, requests, keys):
            future = self._inflight.get(key)
            if future is not None:
                with self.stats.lock:
                    self.stats.inflight_hits += 1
                waiters.append((sizing, future, True))
                continue
            cached_metrics = self.evaluator.peek(request)
            if cached_metrics is not None:
                with self.stats.lock:
                    self.stats.peek_hits += 1
                future = loop.create_future()
                future.set_result({"metrics": cached_metrics, "cached": True})
                waiters.append((sizing, future, True))
                continue
            future = loop.create_future()
            self._inflight[key] = future
            self._pending.append((key, request, future))
            waiters.append((sizing, future, False))

        if self._pending and self._flusher is None:
            self._flusher = asyncio.create_task(self._flush_loop())

        # Gather (never bare-await in sequence) so every waiter's exception
        # is retrieved even when an earlier design in the same submission
        # failed — otherwise the loop would warn about unretrieved futures.
        payloads = await asyncio.gather(
            *(future for _, future, _ in waiters), return_exceptions=True
        )
        for payload in payloads:
            if isinstance(payload, BaseException):
                raise payload
        results = []
        for (sizing, _, shared), payload in zip(waiters, payloads):
            results.append(
                {
                    "sizing": sizing,
                    "metrics": dict(payload["metrics"]),
                    "cached": bool(payload["cached"]) or shared,
                }
            )
        return results

    # --- flushing -----------------------------------------------------------------
    async def _flush_loop(self) -> None:
        """Drain the queue: linger, then evaluate everything that queued up.

        Runs until the queue is empty, then disarms.  Submissions arriving
        while a batch is simulating land in ``_pending`` and form the next
        batch — the loop body is the only place futures are resolved, and
        it never awaits between draining ``_pending`` and resolving them.
        """
        try:
            while self._pending:
                if self.linger_s > 0:
                    await asyncio.sleep(self.linger_s)
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
                requests = [request for _, request, _ in batch]
                try:
                    outcomes = await asyncio.to_thread(
                        self.evaluator.evaluate_outcomes, requests
                    )
                except Exception as error:
                    # Infrastructure failure (evaluator closed, OOM): the
                    # resilient wrapper already absorbed every per-request
                    # failure, so this path is catastrophic-only.
                    for key, _, future in batch:
                        self._inflight.pop(key, None)
                        if not future.done():
                            future.set_exception(
                                EvaluationError(f"evaluation failed: {error}")
                            )
                    continue
                with self.stats.lock:
                    self.stats.batches_issued += 1
                    self.stats.designs_flushed += len(batch)
                for (key, _, future), outcome in zip(batch, outcomes):
                    self._inflight.pop(key, None)
                    if future.done():
                        continue
                    if isinstance(outcome, EvalFailure):
                        # Only this design's waiters see the failure; the
                        # rest of the coalesced batch resolves normally.
                        with self.stats.lock:
                            self.stats.failures += 1
                        future.set_exception(
                            EvaluationError(
                                f"evaluation failed: {outcome.message}",
                                kind=outcome.kind,
                                retryable=outcome.retryable,
                                attempts=outcome.attempts,
                            )
                        )
                    else:
                        future.set_result(
                            {
                                "metrics": dict(outcome.metrics),
                                "cached": bool(outcome.cached),
                            }
                        )
        finally:
            self._flusher = None

    # --- lifecycle ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Stats payload for the ``stats`` endpoint."""
        payload = {
            "coalescer": self.stats.to_dict(),
            "evaluator": self.evaluator_stats(),
            "resilience": self.evaluator.rstats.to_dict(),
            "buckets": sorted(
                f"{circuit}/{technology}" for circuit, technology in self._seen
            ),
        }
        chaos = self.evaluator.inner
        if isinstance(chaos, FaultInjectingEvaluator):
            payload["chaos"] = dict(chaos.injected)
        return payload

    def close(self) -> None:
        """Cancel pending work and release the shared evaluator."""
        self._closed = True
        if self._flusher is not None:
            self._flusher.cancel()
        for key, _, future in self._pending:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(EvaluationError("server shutting down"))
        self._pending.clear()
        self.evaluator.close()
