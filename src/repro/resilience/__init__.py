"""Resilience layer: failure taxonomy, validation, retries, chaos, quarantine.

The failure semantics the rest of the stack builds on, sized for a
deterministic engine: per-request :data:`EvalOutcome` resolution instead
of batch-wide raising, validation before simulation, split-on-failure
bisection, retries with backoff for the kinds a retry can fix, poison-design
quarantine, and a deterministic fault-injection harness to prove it all.
"""

from repro.resilience.chaos import (
    FAULT_TYPES,
    FaultInjectingEvaluator,
    InjectedCrash,
    InjectedFault,
)
from repro.resilience.failures import (
    FAILURE_KINDS,
    RETRYABLE_KINDS,
    EvalFailure,
    EvalFailureError,
    EvalOutcome,
    EvalTimeoutError,
    classify_exception,
    is_nonconverged,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.resilient import ResilienceStats, ResilientEvaluator

__all__ = [
    "FAILURE_KINDS",
    "FAULT_TYPES",
    "RETRYABLE_KINDS",
    "EvalFailure",
    "EvalFailureError",
    "EvalOutcome",
    "EvalTimeoutError",
    "FaultInjectingEvaluator",
    "InjectedCrash",
    "InjectedFault",
    "ResilienceStats",
    "ResilientEvaluator",
    "RetryPolicy",
    "classify_exception",
    "is_nonconverged",
]
