"""Vectorized evaluator: whole batches through the stacked SPICE engine.

Where :class:`~repro.eval.local.LocalEvaluator` walks the scalar path once
per design, this backend stamps every design of a batch into stacked MNA
systems and solves them with single batched LAPACK calls
(:mod:`repro.spice.batch`): batched-Newton DC with per-design convergence
masks and a masked gmin/source-stepping homotopy for the hard designs, one
``(B, F, n, n)`` AC solve and batched adjoint noise.  Measurement code is
shared with the serial path through the circuit's
:meth:`~repro.circuits.base.CircuitDesign.analysis_plan` /
:meth:`~repro.circuits.base.CircuitDesign.metrics_from_solutions` split, so
results match the serial backend to solver precision.

Mixed :class:`~repro.eval.base.EvalRequest` batches are bucketed by
(circuit, technology) — the :class:`~repro.spice.batch.BatchTemplate`
compatibility key — so a heterogeneous request stream becomes a few dense
stacked solves instead of many sparse ones; results scatter back in request
order.

Circuits without an analysis plan run through their
:meth:`~repro.circuits.base.CircuitDesign.evaluate_stacked` hook instead:
the LDO solves the light- and heavy-load operating points of the whole
chunk in one scalar-exact stacked DC
(:func:`~repro.spice.batch.stacked_dc_operating_point`), runs its PSRR AC
per design, and stacks the settling transients into one batched
backward-Euler solve — its metrics equal the serial ones exactly.  Circuits
with neither path, and buckets whose topology unexpectedly diverges, fall
back to the serial path per design (counted in ``stats.scalar_fallbacks``)
— the backend is always *correct*, just not always faster.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence, Set, Tuple

from repro.circuits.base import AnalysisPlan, CircuitDesign
from repro.circuits.parameters import Sizing
from repro.eval.base import EvalResult, Evaluator
from repro.spice.batch import (
    ACSystem,
    BatchIncompatibleError,
    BatchTemplate,
    batch_ac_analysis,
    batch_dc_operating_point,
    batch_noise_analysis,
)

logger = logging.getLogger("repro.eval")

#: Designs per stacked solve: larger buckets are split into chunks of this
#: size, which bounds the ``(B, F, n, n)`` AC tensor to a few tens of MB for
#: the benchmark circuits.
MAX_BATCH = 64


class VectorizedEvaluator(Evaluator):
    """Evaluates batches through the stacked (vectorized) MNA engine.

    Args:
        circuit: The circuit design to simulate, or ``None`` for an unbound
            evaluator serving mixed request batches.
    """

    def __init__(self, circuit: Optional[CircuitDesign] = None):
        super().__init__(circuit)
        self._warned_serial: Set[Tuple[str, str]] = set()

    # --- fallbacks ---------------------------------------------------------------
    def _serial_fallback(
        self, circuit: CircuitDesign, sizings: Sequence[Sizing], reason: str
    ) -> List[EvalResult]:
        key = (circuit.name.lower(), circuit.technology.name)
        if key not in self._warned_serial:
            logger.info(
                "vectorized evaluator for %r runs serially: %s",
                circuit.name,
                reason,
            )
            self._warned_serial.add(key)
        with self.stats.lock:
            self.stats.scalar_fallbacks += len(sizings)
        return [
            EvalResult(sizing=sizing, metrics=circuit.evaluate(sizing))
            for sizing in sizings
        ]

    # --- batched path ------------------------------------------------------------
    def _evaluate_chunk(
        self, circuit: CircuitDesign, sizings: List[Sizing], plan: AnalysisPlan
    ) -> List[EvalResult]:
        circuits = [circuit.build_circuit(sizing) for sizing in sizings]
        try:
            template = BatchTemplate(circuits)
        except BatchIncompatibleError as error:
            return self._serial_fallback(circuit, sizings, str(error))

        ops = batch_dc_operating_point(circuits, template=template)
        converged = [i for i, op in enumerate(ops) if op.converged]
        metrics = [circuit.failure_metrics() for _ in sizings]

        if converged:
            sub_circuits = [circuits[i] for i in converged]
            sub_ops = [ops[i] for i in converged]
            sub_template = (
                template if len(converged) == len(circuits) else template.subset(converged)
            )
            # One small-signal system serves both sweeps.
            system = ACSystem(sub_template, sub_ops)
            acs = batch_ac_analysis(sub_circuits, sub_ops, plan.ac_frequencies, system=system)
            noises: List[Optional[object]] = [None] * len(converged)
            if plan.noise_output is not None:
                noises = batch_noise_analysis(
                    sub_circuits,
                    sub_ops,
                    plan.noise_output,
                    plan.noise_frequencies,
                    output_node_neg=plan.noise_output_neg,
                    system=system,
                )
            for position, index in enumerate(converged):
                metrics[index] = circuit.metrics_from_solutions(
                    sizings[index], ops[index], acs[position], noises[position]
                )

        return [
            EvalResult(sizing=sizing, metrics=metric)
            for sizing, metric in zip(sizings, metrics)
        ]

    def _evaluate_stacked_chunk(
        self, circuit: CircuitDesign, sizings: List[Sizing]
    ) -> List[EvalResult]:
        metrics = circuit.evaluate_stacked(sizings)
        if metrics is None:
            return self._serial_fallback(
                circuit, sizings, "circuit publishes no analysis plan or stacked path"
            )
        return [
            EvalResult(sizing=sizing, metrics=metric)
            for sizing, metric in zip(sizings, metrics)
        ]

    def _evaluate_bucket(
        self, circuit: CircuitDesign, sizings: Sequence[Sizing]
    ) -> List[EvalResult]:
        """Evaluate one topology bucket through stacked solves (chunked)."""
        sizings = list(sizings)
        plan = circuit.analysis_plan()
        results: List[EvalResult] = []
        for offset in range(0, len(sizings), MAX_BATCH):
            chunk = sizings[offset : offset + MAX_BATCH]
            if plan is None:
                results.extend(self._evaluate_stacked_chunk(circuit, chunk))
            else:
                results.extend(self._evaluate_chunk(circuit, chunk, plan))
        return results
