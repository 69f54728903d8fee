"""Benchmark circuits and the component/topology model used by GCN-RL.

The four circuits evaluated in the paper are available through
:func:`get_circuit`:

* ``"two_tia"`` — two-stage transimpedance amplifier,
* ``"two_volt"`` — two-stage voltage amplifier,
* ``"three_tia"`` — three-stage transimpedance amplifier,
* ``"ldo"`` — low-dropout regulator.
"""

from repro.circuits.base import CircuitDesign, MetricDef, SpecLimit
from repro.circuits.components import (
    ComponentSpec,
    ComponentType,
    MAX_ACTION_DIM,
    TYPE_ORDER,
    capacitor,
    mosfet,
    resistor,
    validate_components,
)
from repro.circuits.graph import (
    build_adjacency,
    normalized_adjacency,
    receptive_field_depth,
)
from repro.circuits.ldo import LowDropoutRegulator
from repro.circuits.parameters import ParameterDef, ParameterSpace, Sizing
from repro.circuits.three_tia import ThreeStageTIA
from repro.circuits.two_tia import TwoStageTIA
from repro.circuits.two_volt import TwoStageVoltageAmplifier
from repro.circuits.library import CIRCUIT_CLASSES, get_circuit, list_circuits

__all__ = [
    "CircuitDesign",
    "MetricDef",
    "SpecLimit",
    "ComponentSpec",
    "ComponentType",
    "MAX_ACTION_DIM",
    "TYPE_ORDER",
    "mosfet",
    "resistor",
    "capacitor",
    "validate_components",
    "build_adjacency",
    "normalized_adjacency",
    "receptive_field_depth",
    "ParameterDef",
    "ParameterSpace",
    "Sizing",
    "TwoStageTIA",
    "TwoStageVoltageAmplifier",
    "ThreeStageTIA",
    "LowDropoutRegulator",
    "CIRCUIT_CLASSES",
    "get_circuit",
    "list_circuits",
]
