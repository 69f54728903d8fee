"""The resilient evaluation wrapper: validate, isolate, retry, quarantine.

:class:`ResilientEvaluator` turns any evaluator's all-or-nothing
``evaluate_requests`` into per-request :data:`~repro.resilience.failures.EvalOutcome`
resolution, sized for a deterministic engine (a failure that is not
injected reproduces on every attempt):

* **Validation at the boundary** — a request naming an unknown circuit or
  technology, or whose sizing fails
  :meth:`~repro.circuits.parameters.ParameterSpace.check_sizing`, is
  ``invalid_request`` after zero attempts: it joins no stacked batch and
  is never retried or quarantined.
* **One inner call for a clean batch**, plus the validation and a NaN scan.
* **Split-on-failure bisection** — when a batch raises, each bucket is
  bisected, so a poisoned design fails alone while the rest keep their
  stacked solves.
* **Retries for transient kinds only** — an isolated failure whose kind is
  in :data:`~repro.resilience.failures.RETRYABLE_KINDS` (timeouts, worker
  crashes, injected chaos faults) is retried per the
  :class:`~repro.resilience.policy.RetryPolicy`; an untagged engine
  exception (``simulator_error``) fails after one attempt.
* **Quarantine** — a design that failed is remembered by canonical key
  (LRU-bounded) and fails fast on resubmission, never bisecting again.

Wrap *outside* any cache (``ResilientEvaluator(CachingEvaluator(...))``)
so failures are never cached, and outside the chaos harness so injected
faults exercise the real recovery machinery.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.library import get_circuit
from repro.circuits.parameters import ParameterSpace
from repro.eval.base import (
    EvalRequest,
    EvalResult,
    Evaluator,
    EvaluatorStats,
    ThreadSafeCounters,
)
from repro.eval.caching import request_cache_key
from repro.resilience.failures import (
    RETRYABLE_KINDS,
    EvalFailure,
    EvalFailureError,
    EvalOutcome,
    classify_exception,
    is_nonconverged,
)
from repro.resilience.policy import RetryPolicy


@dataclass
class ResilienceStats(ThreadSafeCounters):
    """Counters of the wrapper's recovery activity (all zero on clean runs).

    Attributes:
        failures: Terminal :class:`EvalFailure` outcomes produced
            (refused invalid requests included).
        retries: Extra attempts spent beyond each request's first.
        bisections: Failed group attempts that were split in half.
        serial_downgrades: Requests resolved on the per-request serial
            path (after bisection bottomed out).
        quarantined: Requests added to the quarantine.
        quarantine_hits: Requests failed fast because their design was
            already quarantined.
    """

    failures: int = 0
    retries: int = 0
    bisections: int = 0
    serial_downgrades: int = 0
    quarantined: int = 0
    quarantine_hits: int = 0

    def to_dict(self) -> Dict[str, int]:
        with self.lock:
            return {
                "failures": self.failures,
                "retries": self.retries,
                "bisections": self.bisections,
                "serial_downgrades": self.serial_downgrades,
                "quarantined": self.quarantined,
                "quarantine_hits": self.quarantine_hits,
            }


class ResilientEvaluator(Evaluator):
    """Per-request validation and failure isolation around any :class:`Evaluator`.

    Args:
        inner: The evaluator doing the actual work (wrap caches inside,
            never outside, so failures are not cached).
        policy: Attempts and backoff for retryable failure kinds (see
            :class:`RetryPolicy`).
        quarantine_size: Max quarantined design keys kept (LRU).
        seed: Seed for backoff jitter (determinism under test).
        sleep: Injection point for backoff waits (tests pass a recorder).
    """

    def __init__(
        self,
        inner: Evaluator,
        policy: Optional[RetryPolicy] = None,
        quarantine_size: int = 1024,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if quarantine_size < 1:
            raise ValueError(
                f"quarantine_size must be >= 1, got {quarantine_size}"
            )
        self.inner = inner
        self._circuit = inner._circuit
        self._circuits = inner._circuits
        self.policy = policy if policy is not None else RetryPolicy()
        self.quarantine_size = int(quarantine_size)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self.rstats = ResilienceStats()
        self._quarantine: "OrderedDict[object, EvalFailure]" = OrderedDict()
        # Protects the quarantine LRU: evaluate paths run inside coalescer
        # flush threads while snapshots/clears arrive from other threads.
        self._quarantine_lock = threading.Lock()
        #: Parameter space per bucket, resolved on the bucket's first request.
        self._spaces: Dict[Tuple[str, str], ParameterSpace] = {}

    # --- plumbing -----------------------------------------------------------------
    @property
    def stats(self) -> EvaluatorStats:
        return self.inner.stats

    def peek(self, request: EvalRequest):
        return self.inner.peek(request)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return (
            f"ResilientEvaluator(attempts={self.policy.max_attempts}, "
            f"inner={self.inner.describe()})"
        )

    # --- quarantine ---------------------------------------------------------------
    @property
    def quarantine(self) -> List[EvalFailure]:
        """Snapshot of quarantined failures (oldest first)."""
        with self._quarantine_lock:
            return list(self._quarantine.values())

    def clear_quarantine(self) -> None:
        with self._quarantine_lock:
            self._quarantine.clear()

    def _quarantine_put(self, key: object, failure: EvalFailure) -> None:
        with self._quarantine_lock:
            self._quarantine[key] = failure
            self._quarantine.move_to_end(key)
            while len(self._quarantine) > self.quarantine_size:
                self._quarantine.popitem(last=False)
        with self.rstats.lock:
            self.rstats.quarantined += 1

    # --- validation ---------------------------------------------------------------
    def _invalid(self, request: EvalRequest) -> Optional[str]:
        """Why ``request`` cannot be simulated, or ``None`` when it can."""
        try:
            space = self._spaces.get(request.bucket)
            if space is None:
                circuit = self._circuits.get(request.bucket)
                if circuit is None:
                    circuit = get_circuit(request.circuit, request.technology)
                space = self._spaces.setdefault(
                    request.bucket, circuit.parameter_space
                )
            space.check_sizing(request.sizing)
        except (KeyError, ValueError) as error:
            return error.args[0] if error.args else type(error).__name__
        return None

    # --- resolution ---------------------------------------------------------------
    def evaluate_outcomes(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalOutcome]:
        """Per-request outcomes for a mixed batch; never raises for a
        request-level failure (``outcomes[i]`` matches ``requests[i]``)."""
        requests = list(requests)
        outcomes: List[Optional[EvalOutcome]] = [None] * len(requests)

        live: List[int] = []
        for index, request in enumerate(requests):
            # Validate first: the quarantine key needs numeric values.
            problem = self._invalid(request)
            if problem is not None:
                kind, message = "invalid_request", f"invalid request: {problem}"
            else:
                key = request_cache_key(request)
                with self._quarantine_lock:
                    known = self._quarantine.get(key)
                    if known is not None:
                        self._quarantine.move_to_end(key)
                if known is None:
                    live.append(index)
                    continue
                kind, message = known.kind, f"quarantined: {known.message}"
                with self.rstats.lock:
                    self.rstats.quarantine_hits += 1
            with self.rstats.lock:
                self.rstats.failures += 1
            outcomes[index] = EvalFailure(
                request=request, kind=kind, message=message, attempts=0
            )

        if live:
            try:
                results = self.inner.evaluate_requests(
                    [requests[i] for i in live]
                )
            except Exception:
                # Isolate per bucket, then bisect each bucket.
                by_bucket: Dict[Tuple[str, str], List[int]] = {}
                for index in live:
                    by_bucket.setdefault(requests[index].bucket, []).append(index)
                for indices in by_bucket.values():
                    self._resolve_bucket(requests, outcomes, indices)
            else:
                for index, result in zip(live, results):
                    outcomes[index] = self._accept(requests[index], result, 1)

        return outcomes  # type: ignore[return-value]

    def evaluate_requests(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResult]:
        """Strict adapter: resolve outcomes, raise on the first failure."""
        outcomes = self.evaluate_outcomes(requests)
        for outcome in outcomes:
            if isinstance(outcome, EvalFailure):
                raise EvalFailureError(outcome)
        return outcomes  # type: ignore[return-value]

    def _accept(
        self, request: EvalRequest, result: EvalResult, attempts: int
    ) -> EvalOutcome:
        """Turn an inner result into an outcome (NaN scan → nonconvergence)."""
        if is_nonconverged(result.metrics):
            failure = EvalFailure(
                request=request,
                kind="nonconvergence",
                message="simulation returned non-finite (NaN) metrics",
                attempts=attempts,
            )
            with self.rstats.lock:
                self.rstats.failures += 1
            self._quarantine_put(request_cache_key(request), failure)
            return failure
        return result

    def _resolve_bucket(
        self,
        requests: Sequence[EvalRequest],
        outcomes: List[Optional[EvalOutcome]],
        indices: List[int],
    ) -> None:
        """Bisect one bucket's requests until the poison is isolated."""
        if len(indices) == 1:
            with self.rstats.lock:
                self.rstats.serial_downgrades += 1
            outcomes[indices[0]] = self._resolve_single(requests[indices[0]])
            return
        try:
            results = self.inner.evaluate_requests([requests[i] for i in indices])
        except Exception:
            with self.rstats.lock:
                self.rstats.bisections += 1
            middle = len(indices) // 2
            self._resolve_bucket(requests, outcomes, indices[:middle])
            self._resolve_bucket(requests, outcomes, indices[middle:])
            return
        for index, result in zip(indices, results):
            outcomes[index] = self._accept(requests[index], result, 1)

    def _resolve_single(self, request: EvalRequest) -> EvalOutcome:
        """One isolated request, retried with backoff while its failure
        kind is retryable; a terminal failure is quarantined."""
        attempts = 1
        while True:
            try:
                result = self.inner.evaluate_requests([request])[0]
            except Exception as error:  # noqa: BLE001 - classified below
                kind = classify_exception(error)
                if kind in RETRYABLE_KINDS and attempts < self.policy.max_attempts:
                    self._sleep(self.policy.backoff_delay(attempts, self._rng))
                    attempts += 1
                    with self.rstats.lock:
                        self.rstats.retries += 1
                    continue
                failure = EvalFailure(
                    request=request,
                    kind=kind,
                    message=str(error),
                    attempts=attempts,
                )
                with self.rstats.lock:
                    self.rstats.failures += 1
                self._quarantine_put(request_cache_key(request), failure)
                return failure
            return self._accept(request, result, attempts)
