"""Deterministic fault injection: the chaos harness for the eval stack.

A :class:`FaultInjectingEvaluator` wraps any evaluator and makes a seeded,
per-design decision to sabotage requests — raising exceptions, returning
NaN metrics, timing out, or simulating a worker crash.  Two properties make
it usable as a *test oracle* rather than just noise:

* **Decisions are a pure function of (seed, design)** — each request's
  fault is derived from a SHA-256 hash of the seed and its canonical
  :func:`~repro.eval.caching.request_cache_key`, never from call order.
  The same seed poisons the same designs no matter how traffic is batched,
  coalesced or retried, so a faulted run can be compared bit-for-bit
  against a fault-free reference on the non-poisoned designs.
* **Faults can be transient** — with ``transient_attempts=N`` a poisoned
  design fails its first N attempts and then behaves normally, which is
  exactly what bounded-retry logic must survive.  ``transient_attempts=0``
  makes faults permanent (the quarantine path's food).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.eval.base import EvalRequest, EvalResult, Evaluator, EvaluatorStats
from repro.eval.caching import request_cache_key
from repro.resilience.failures import EvalTimeoutError

#: Fault types the harness can inject, in cumulative-rate order.
FAULT_TYPES = ("error", "nan", "timeout", "crash")


class InjectedFault(RuntimeError):
    """A deliberately injected simulator exception."""

    failure_kind = "injected"


class InjectedCrash(OSError):
    """A deliberately injected worker death (classifies as worker_crash)."""

    failure_kind = "worker_crash"


class FaultInjectingEvaluator(Evaluator):
    """Wraps an evaluator and deterministically sabotages a design subset.

    Args:
        inner: The evaluator that serves non-poisoned requests.
        seed: Chaos seed; with the rates, fully determines which designs
            are poisoned and how.
        error_rate: Fraction of designs whose evaluation raises
            :class:`InjectedFault`.  Exceptions are raised *batch-wide*
            (the whole ``evaluate_requests`` call fails), exactly like a
            real solver crash — isolating the poison is the resilient
            wrapper's job, not the harness's.
        nan_rate: Fraction of designs whose metrics are replaced by NaN.
        timeout_rate: Fraction of designs that raise
            :class:`~repro.resilience.failures.EvalTimeoutError`.
        crash_rate: Fraction of designs that raise :class:`InjectedCrash`.
        transient_attempts: Number of attempts each poisoned design fails
            before recovering; 0 means faults are permanent.
        predicate: Optional targeted override: ``predicate(request)``
            returns a fault type from :data:`FAULT_TYPES` (poisoned) or
            ``None`` (fall back to the seeded rates).  Lets tests poison
            one specific design instead of a random fraction.
    """

    def __init__(
        self,
        inner: Evaluator,
        seed: int = 0,
        error_rate: float = 0.0,
        nan_rate: float = 0.0,
        timeout_rate: float = 0.0,
        crash_rate: float = 0.0,
        transient_attempts: int = 0,
        predicate: Optional[Callable[[EvalRequest], Optional[str]]] = None,
    ):
        total = error_rate + nan_rate + timeout_rate + crash_rate
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates must sum to <= 1, got {total:.3f}"
            )
        for name, rate in (
            ("error_rate", error_rate),
            ("nan_rate", nan_rate),
            ("timeout_rate", timeout_rate),
            ("crash_rate", crash_rate),
        ):
            if rate < 0:
                raise ValueError(f"{name} must be >= 0, got {rate}")
        self.inner = inner
        self._circuit = inner._circuit
        self._circuits = inner._circuits
        self.seed = int(seed)
        self.error_rate = float(error_rate)
        self.nan_rate = float(nan_rate)
        self.timeout_rate = float(timeout_rate)
        self.crash_rate = float(crash_rate)
        self.transient_attempts = int(transient_attempts)
        self.predicate = predicate
        #: Faulted attempts spent per design key (transience accounting).
        self._attempts: Dict[object, int] = {}
        #: Injection counters by fault type.
        self.injected: Dict[str, int] = {name: 0 for name in FAULT_TYPES}
        # Guards attempt/injection accounting: faults fire inside whatever
        # thread runs the evaluation (coalescer flushes, campaign workers).
        self._chaos_lock = threading.Lock()

    @property
    def stats(self) -> EvaluatorStats:
        return self.inner.stats

    def fault_for(self, request: EvalRequest) -> Optional[str]:
        """The fault type this harness assigns to ``request`` (or ``None``).

        Pure in (seed, design): ignores attempt counters, so tests can ask
        which designs a seed poisons without mutating harness state.
        """
        if self.predicate is not None:
            fault = self.predicate(request)
            if fault is not None:
                if fault not in FAULT_TYPES:
                    # Misconfigured test predicate — a bug, not a failure.
                    raise ValueError(  # repro-lint: ignore[failure-taxonomy]
                        f"predicate returned unknown fault {fault!r} "
                        f"(expected one of {FAULT_TYPES})"
                    )
                return fault
        draw = self._draw(request)
        edge = 0.0
        for name, rate in (
            ("error", self.error_rate),
            ("nan", self.nan_rate),
            ("timeout", self.timeout_rate),
            ("crash", self.crash_rate),
        ):
            edge += rate
            if draw < edge:
                return name
        return None

    def _draw(self, request: EvalRequest) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, design key)."""
        key = request_cache_key(request)
        digest = hashlib.sha256(
            f"{self.seed}|{key!r}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _active_fault(self, request: EvalRequest) -> Optional[str]:
        """The fault to fire now, honouring transience (``None`` = clean)."""
        fault = self.fault_for(request)
        if fault is None:
            return None
        if self.transient_attempts > 0:
            key = request_cache_key(request)
            with self._chaos_lock:
                if self._attempts.get(key, 0) >= self.transient_attempts:
                    return None
        return fault

    def _fire(self, request: EvalRequest, fault: str) -> None:
        """Record one faulted attempt and raise if the fault is a raiser."""
        key = request_cache_key(request)
        with self._chaos_lock:
            self._attempts[key] = self._attempts.get(key, 0) + 1
            self.injected[fault] += 1
        if fault == "error":
            raise InjectedFault(
                f"injected simulator fault for {request.circuit}/"
                f"{request.technology}"
            )
        if fault == "crash":
            raise InjectedCrash(
                f"injected worker crash for {request.circuit}/"
                f"{request.technology}"
            )
        if fault == "timeout":
            raise EvalTimeoutError(
                f"injected timeout for {request.circuit}/"
                f"{request.technology}"
            )

    def evaluate_requests(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResult]:
        requests = list(requests)
        # Raising faults fail the whole batch (like a real solver crash):
        # the first poisoned request in batch order wins.
        for request in requests:
            fault = self._active_fault(request)
            if fault in ("error", "crash", "timeout"):
                self._fire(request, fault)
        results = self.inner.evaluate_requests(requests)
        for index, request in enumerate(requests):
            if self._active_fault(request) == "nan":
                self._fire(request, "nan")
                result = results[index]
                results[index] = EvalResult(
                    sizing=result.sizing,
                    metrics={name: float("nan") for name in result.metrics},
                    cached=False,
                )
        return results

    def peek(self, request: EvalRequest):
        # Never let a cached answer mask an active fault — chaos must bite
        # the dedup/peek layers too.
        if self._active_fault(request) is not None:
            return None
        return self.inner.peek(request)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        rates = (
            f"error={self.error_rate} nan={self.nan_rate} "
            f"timeout={self.timeout_rate} crash={self.crash_rate}"
        )
        return (
            f"FaultInjectingEvaluator(seed={self.seed}, {rates}, "
            f"inner={self.inner.describe()})"
        )
