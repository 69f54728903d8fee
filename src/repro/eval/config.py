"""Declarative evaluator configuration, shared by the CLI and the runner.

An :class:`EvaluatorConfig` describes *how* designs should be evaluated —
serial scalar solves or stacked vectorized ones, with or without an LRU
cache — without holding any resources itself, so it can live in experiment
settings, be hashed into run-cache keys and be built once per circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.circuits.base import CircuitDesign
from repro.eval.base import Evaluator
from repro.eval.caching import CachingEvaluator
from repro.eval.local import LocalEvaluator
from repro.eval.vectorized import VectorizedEvaluator

#: Recognised evaluation backends.
BACKENDS = ("local", "vectorized")


@dataclass(frozen=True)
class EvaluatorConfig:
    """How to build the evaluator stack for a run.

    Attributes:
        backend: ``"local"`` (serial, in-process scalar engine) or
            ``"vectorized"`` (stacked batched solves through
            :mod:`repro.spice.batch`).
        cache_size: When positive, wrap the base evaluator in a
            :class:`CachingEvaluator` with this capacity.
    """

    backend: str = "local"
    cache_size: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")

    def build(self, circuit: Optional[CircuitDesign] = None) -> Evaluator:
        """Construct the configured evaluator stack.

        With ``circuit`` the stack is bound to it (the classic per-run use);
        without, the stack is unbound and serves arbitrarily mixed
        :class:`~repro.eval.base.EvalRequest` batches — one shared evaluator
        for a whole campaign or service.
        """
        if self.backend == "vectorized":
            evaluator: Evaluator = VectorizedEvaluator(circuit)
        else:
            evaluator = LocalEvaluator(circuit)
        if self.cache_size > 0:
            evaluator = CachingEvaluator(evaluator, max_size=self.cache_size)
        return evaluator

    def cache_key(self) -> Tuple:
        """Canonical hashable form for run-cache keys."""
        # The ``None`` fills the slot of the retired worker-pool size, so
        # stores and checkpoints written before the pool backends were
        # removed keep matching their run keys.
        return ("evaluator", self.backend, None, self.cache_size)


def build_evaluator(
    circuit: CircuitDesign, config: Optional[EvaluatorConfig] = None
) -> Evaluator:
    """Build an evaluator for ``circuit`` (serial local one by default)."""
    return (config or EvaluatorConfig()).build(circuit)
