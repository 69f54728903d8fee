"""In-process serial evaluator — the reference implementation."""

from __future__ import annotations

from typing import List, Sequence

from repro.circuits.base import CircuitDesign
from repro.circuits.parameters import Sizing
from repro.eval.base import EvalResult, Evaluator


class LocalEvaluator(Evaluator):
    """Evaluates each design serially through ``circuit.evaluate``.

    This is the behaviour every optimizer had before the batched API existed;
    :class:`~repro.eval.caching.CachingEvaluator` and
    :class:`~repro.eval.vectorized.VectorizedEvaluator` are verified against
    it.  Unbound (``LocalEvaluator()``), it serves arbitrarily mixed
    :class:`~repro.eval.base.EvalRequest` batches, resolving circuits from
    the registry.
    """

    def _evaluate_bucket(
        self, circuit: CircuitDesign, sizings: Sequence[Sizing]
    ) -> List[EvalResult]:
        """Simulate every sizing in order on the calling thread."""
        return [
            EvalResult(sizing=sizing, metrics=circuit.evaluate(sizing))
            for sizing in sizings
        ]
