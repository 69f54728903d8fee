"""Abstract base class shared by the four benchmark circuits."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.components import ComponentSpec, validate_components
from repro.circuits.graph import build_adjacency, normalized_adjacency
from repro.circuits.parameters import ParameterSpace, Sizing
from repro.spice.ac import ACSolution, ac_analysis
from repro.spice.circuit import Circuit
from repro.spice.dc import DCSolution, dc_operating_point
from repro.spice.noise import NoiseSolution, noise_analysis
from repro.technology.node import TechnologyNode


@dataclass(frozen=True)
class MetricDef:
    """Definition of one performance metric reported by a circuit.

    Attributes:
        name: Metric key (e.g. ``"bandwidth"``).
        unit: Human-readable unit for reports.
        larger_is_better: Direction used for the default FoM weight sign.
        display_scale: Multiplier applied when printing paper-style tables
            (e.g. ``1e-9`` to print Hz as GHz).
        description: Short human-readable description.
    """

    name: str
    unit: str
    larger_is_better: bool
    display_scale: float = 1.0
    description: str = ""


@dataclass(frozen=True)
class AnalysisPlan:
    """Declarative DC → AC → noise recipe of a circuit's evaluation.

    Circuits whose :meth:`CircuitDesign.evaluate` is exactly "operating
    point, one AC sweep, optionally one noise sweep, then measurements"
    publish this plan; the serial path and the vectorized batch engine both
    execute it, then hand the solutions to the *same*
    :meth:`CircuitDesign.metrics_from_solutions`, so the two paths cannot
    drift apart in measurement code.

    Attributes:
        ac_frequencies: AC sweep grid [Hz].
        noise_output: Output node of the noise analysis (``None`` = no noise
            sweep).
        noise_frequencies: Noise sweep grid [Hz] (required when
            ``noise_output`` is set).
        noise_output_neg: Optional negative output node for differential
            outputs.
    """

    ac_frequencies: np.ndarray
    noise_output: Optional[str] = None
    noise_frequencies: Optional[np.ndarray] = None
    noise_output_neg: Optional[str] = None


@dataclass(frozen=True)
class SpecLimit:
    """A hard specification bound on one metric (FoM is negative if violated)."""

    metric: str
    kind: str  # "min" or "max"
    value: float

    def satisfied(self, measured: float) -> bool:
        """Whether the measured value meets this limit."""
        if self.kind == "min":
            return measured >= self.value
        if self.kind == "max":
            return measured <= self.value
        raise ValueError(f"unknown spec kind {self.kind!r}")


class CircuitDesign(abc.ABC):
    """A sizeable circuit topology with a simulation-based evaluation.

    Subclasses declare their components (the topology graph), their metrics,
    and implement :meth:`build_circuit` (netlist construction for a given
    sizing) plus :meth:`evaluate` (run the analyses and return metrics).
    """

    #: Circuit registry name, e.g. ``"two_tia"``.
    name: str = "abstract"
    #: Human-readable title.
    title: str = "abstract circuit"

    def __init__(self, technology: TechnologyNode):
        self.technology = technology
        self._components = self._define_components()
        validate_components(self._components)
        self.parameter_space = ParameterSpace(self._components, technology)

    # --- topology ------------------------------------------------------------------
    @abc.abstractmethod
    def _define_components(self) -> List[ComponentSpec]:
        """Return the ordered list of sizeable components."""

    @property
    def components(self) -> List[ComponentSpec]:
        """Ordered sizeable components (vertices of the topology graph)."""
        return list(self._components)

    @property
    def num_components(self) -> int:
        """Number of sizeable components."""
        return len(self._components)

    def adjacency(self) -> np.ndarray:
        """Binary adjacency matrix of the topology graph."""
        return build_adjacency(self._components)

    def normalized_adjacency(self) -> np.ndarray:
        """GCN propagation matrix for this topology."""
        return normalized_adjacency(self.adjacency())

    # --- metrics ---------------------------------------------------------------------
    @abc.abstractmethod
    def metric_definitions(self) -> List[MetricDef]:
        """Definitions of every metric returned by :meth:`evaluate`."""

    @property
    def metric_names(self) -> List[str]:
        """Names of all metrics, in canonical order."""
        return [m.name for m in self.metric_definitions()]

    def spec_limits(self) -> List[SpecLimit]:
        """Hard specification limits (empty by default)."""
        return []

    def default_weights(self) -> Dict[str, float]:
        """Default FoM weights: +1 if larger is better, -1 otherwise."""
        return {
            m.name: 1.0 if m.larger_is_better else -1.0
            for m in self.metric_definitions()
        }

    # --- evaluation -------------------------------------------------------------------
    @abc.abstractmethod
    def build_circuit(self, sizing: Sizing) -> Circuit:
        """Construct the simulation netlist for a given sizing."""

    @abc.abstractmethod
    def evaluate(self, sizing: Sizing) -> Dict[str, float]:
        """Simulate the sizing and return every metric.

        Implementations must be total: if an analysis fails to converge they
        return :meth:`failure_metrics` rather than raising, so optimization
        loops always receive a (bad) reward.
        """

    def analysis_plan(self) -> Optional[AnalysisPlan]:
        """The circuit's DC/AC/noise recipe, when its evaluation fits one.

        Returns ``None`` for circuits whose evaluation needs analyses the
        plan does not cover (e.g. the LDO's settling transients); the
        vectorized backend then asks :meth:`evaluate_stacked` instead, and
        evaluates the batch serially if that has no stacked path either.
        """
        return None

    def evaluate_stacked(
        self, sizings: Sequence[Sizing]
    ) -> Optional[List[Dict[str, float]]]:
        """:meth:`evaluate` for a whole batch through stacked solves.

        The hook of plan-less circuits that still batch part of their
        evaluation (the LDO stacks its settling transients).  Must return
        exactly what :meth:`evaluate` returns per sizing, in order; the
        default ``None`` means the circuit has no stacked path.
        """
        return None

    def metrics_from_solutions(
        self,
        sizing: Sizing,
        op: DCSolution,
        ac: ACSolution,
        noise: Optional[NoiseSolution],
    ) -> Dict[str, float]:
        """Measurement stage shared by the serial and batched paths.

        Only meaningful for circuits that publish an :meth:`analysis_plan`;
        ``op`` is always converged when this is called (non-converged designs
        short-circuit to :meth:`failure_metrics`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} publishes no analysis plan"
        )

    def _evaluate_with_plan(self, sizing: Sizing) -> Dict[str, float]:
        """Serial reference evaluation of a plan-publishing circuit."""
        plan = self.analysis_plan()
        circuit = self.build_circuit(sizing)
        op = dc_operating_point(circuit)
        if not op.converged:
            return self.failure_metrics()
        ac = ac_analysis(circuit, op, plan.ac_frequencies)
        noise = None
        if plan.noise_output is not None:
            noise = noise_analysis(
                circuit,
                op,
                plan.noise_output,
                plan.noise_frequencies,
                output_node_neg=plan.noise_output_neg,
            )
        return self.metrics_from_solutions(sizing, op, ac, noise)

    def failure_metrics(self) -> Dict[str, float]:
        """Metric values reported when simulation fails to converge.

        Larger-is-better metrics get 0, smaller-is-better metrics get a large
        penalty value, so a failed design is never attractive.
        """
        metrics = {}
        for definition in self.metric_definitions():
            metrics[definition.name] = 0.0 if definition.larger_is_better else 1e12
        metrics["simulation_failed"] = 1.0
        return metrics

    @abc.abstractmethod
    def expert_sizing(self) -> Sizing:
        """The deterministic human-expert reference design."""

    # --- convenience -----------------------------------------------------------------
    def evaluate_vector(self, vector: Sequence[float]) -> Dict[str, float]:
        """Evaluate a flat physical-value parameter vector."""
        sizing = self.parameter_space.vector_to_sizing(vector)
        return self.evaluate(sizing)

    def random_sizing(self, rng: np.random.Generator) -> Sizing:
        """Draw a random refined sizing from the design space."""
        return self.parameter_space.random_sizing(rng)

    def describe(self) -> str:
        """One-line summary used by reports."""
        return (
            f"{self.title} [{self.name}] @ {self.technology.name}: "
            f"{self.num_components} components, "
            f"{self.parameter_space.dimension} parameters, "
            f"{len(self.metric_names)} metrics"
        )
