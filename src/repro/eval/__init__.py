"""Unified design-evaluation subsystem (the single entry to the simulator).

Every optimizer reaches the SPICE engine through an :class:`Evaluator`.  The
unit of work is the :class:`EvalRequest` — (circuit, technology, sizing) —
and the canonical entry point is ``evaluate_requests``, which accepts an
arbitrarily mixed batch and returns results in request order; the
per-circuit ``evaluate_batch`` is a thin adapter over it.

* :class:`LocalEvaluator` — serial in-process reference implementation
  (the scalar engine, one design at a time).
* :class:`CachingEvaluator` — LRU cache keyed on
  :func:`request_cache_key` (circuit, technology, quantized sizing),
  wrapping any other evaluator.
* :class:`VectorizedEvaluator` — stacked batched MNA solves
  (:mod:`repro.spice.batch`): mixed batches are bucketed by topology and
  each bucket shares single LAPACK calls.
* :class:`BoundEvaluator` — per-circuit view of a shared evaluator
  (``Evaluator.bind``), so campaigns and services can funnel many runs
  through one evaluator.
* :class:`EvaluatorConfig` / :func:`build_evaluator` — declarative
  construction of the stack, shared by the CLI and the experiment runner.

The local and vectorized evaluators are the two backends (:data:`BACKENDS`);
the cache wraps either.
"""

from repro.eval.base import (
    BoundEvaluator,
    EvalRequest,
    EvalResult,
    Evaluator,
    EvaluatorStats,
)
from repro.eval.caching import CachingEvaluator, request_cache_key, sizing_cache_key
from repro.eval.config import BACKENDS, EvaluatorConfig, build_evaluator
from repro.eval.local import LocalEvaluator
from repro.eval.vectorized import VectorizedEvaluator

__all__ = [
    "Evaluator",
    "EvalRequest",
    "EvalResult",
    "EvaluatorStats",
    "BoundEvaluator",
    "LocalEvaluator",
    "CachingEvaluator",
    "VectorizedEvaluator",
    "EvaluatorConfig",
    "build_evaluator",
    "request_cache_key",
    "sizing_cache_key",
    "BACKENDS",
]
