"""Structured failure taxonomy for the evaluation stack.

Every layer of the stack (vectorized backends, the service coalescer, the
campaign worker) used to express failure the same way: raise, and let the
whole batch / connection / worker die.  This module gives failures a shape
instead:

* :data:`FAILURE_KINDS` — the closed set of failure classes the stack
  distinguishes.  Retryability, wire encoding and quarantine policy all key
  off the kind, never off exception types.
* :class:`EvalFailure` — one request's terminal failure (after retries),
  carrying the kind, a human message and the attempt count.
* :data:`EvalOutcome` — ``EvalResult | EvalFailure``: what resilient
  evaluation returns per request instead of raising batch-wide.
* :func:`classify_exception` — maps an arbitrary exception from the
  simulator stack onto a failure kind.  Exceptions may self-classify by
  carrying a ``failure_kind`` attribute (the chaos harness does).
* :func:`is_nonconverged` — the NaN scan.  Circuit evaluation is *total*
  (non-converged designs return finite ``failure_metrics()`` penalties), so
  a NaN metric is always anomalous; ``±inf`` is left alone because a
  legitimate ``-inf`` dB from ``log10(0)`` is a valid measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Union

from repro.eval.base import EvalRequest, EvalResult

#: The closed set of failure classes.  ``invalid_request`` is a request the
#: wrapper refused before any simulation (unknown circuit or technology, or
#: a sizing its parameter space rejects).
FAILURE_KINDS = (
    "nonconvergence",
    "timeout",
    "simulator_error",
    "worker_crash",
    "injected",
    "invalid_request",
)

#: Failure kinds a retry may plausibly fix.  The engine is deterministic
#: numpy code, so NaN metrics (``nonconvergence``), an untagged engine
#: exception (``simulator_error``) and a refused request reproduce on every
#: attempt; only timeouts, worker crashes and injected chaos faults are
#: presumed transient.
RETRYABLE_KINDS = frozenset({"timeout", "worker_crash", "injected"})


class EvalTimeoutError(RuntimeError):
    """An evaluation attempt timed out (the chaos harness's ``timeout`` fault)."""

    failure_kind = "timeout"


@dataclass(frozen=True)
class EvalFailure:
    """Terminal failure of one evaluation request (after bounded retries).

    Attributes:
        request: The request that failed.
        kind: One of :data:`FAILURE_KINDS`.
        message: Human-readable cause (the last exception's message).
        attempts: Evaluation attempts spent before giving up.
    """

    request: EvalRequest
    kind: str
    message: str
    attempts: int = 1

    def __post_init__(self):
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r} "
                f"(expected one of {FAILURE_KINDS})"
            )

    @property
    def retryable(self) -> bool:
        """Whether submitting the same request again may succeed."""
        return self.kind in RETRYABLE_KINDS

    def to_dict(self) -> Dict[str, object]:
        """Wire/log form (request identity, not the full sizing)."""
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "retryable": self.retryable,
            "circuit": self.request.circuit,
            "technology": self.request.technology,
        }


#: What resilient evaluation yields per request: a result or a failure.
EvalOutcome = Union[EvalResult, EvalFailure]


class EvalFailureError(RuntimeError):
    """Raised by strict entry points when a batch contains failures.

    Carries the first :class:`EvalFailure` so callers that still want
    raise-on-failure semantics (``Evaluator.evaluate_requests``) keep the
    taxonomy.
    """

    def __init__(self, failure: EvalFailure):
        super().__init__(
            f"evaluation failed ({failure.kind}, "
            f"{failure.attempts} attempt(s)): {failure.message}"
        )
        self.failure = failure
        # Self-classify so an EvalFailureError re-entering
        # classify_exception() keeps its kind (an injected fault must stay
        # retryable, not degrade to the catch-all ``simulator_error``).
        self.failure_kind = failure.kind


def classify_exception(error: BaseException) -> str:
    """Map an exception from the evaluation stack onto a failure kind.

    Precedence: a ``failure_kind`` attribute on the exception wins (the
    chaos harness and :class:`EvalTimeoutError` self-classify), then
    ``TimeoutError``, then ``OSError`` (``worker_crash``), then the catch-all
    ``simulator_error``.
    """
    kind = getattr(error, "failure_kind", None)
    if kind in FAILURE_KINDS:
        return kind
    if isinstance(error, TimeoutError):
        return "timeout"
    if isinstance(error, OSError):
        return "worker_crash"
    return "simulator_error"


def is_nonconverged(metrics: Dict[str, float]) -> bool:
    """True when any metric is NaN (±inf is a legitimate measurement)."""
    return any(math.isnan(value) for value in metrics.values())
