"""Parameter spaces, action denormalisation and the refinement step.

The RL agent (and every baseline optimizer) works in a normalised space where
each sizing parameter lives in ``[-1, 1]``.  This module maps those
normalised actions to physical values (log-scaled for widths, resistances and
capacitances), applies the refinement step of the paper (matching-group
averaging, rounding to the technology grid, truncation to bounds) and
flattens per-component dictionaries into vectors for the black-box baselines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.components import ComponentSpec, ComponentType
from repro.technology.node import TechnologyNode

#: A full sizing assignment: component name -> parameter name -> value.
Sizing = Dict[str, Dict[str, float]]


@dataclass(frozen=True)
class ParameterDef:
    """One scalar design parameter of one component.

    Attributes:
        component: Owning component name.
        name: Parameter name (``w``, ``l``, ``m``, ``r`` or ``c``).
        lower: Lower bound (physical units).
        upper: Upper bound (physical units).
        log_scale: Whether normalised actions map through a log scale.
        integer: Whether the physical value is rounded to an integer.
        grid: Snapping grid in physical units (0 disables snapping).
    """

    component: str
    name: str
    lower: float
    upper: float
    log_scale: bool = True
    integer: bool = False
    grid: float = 0.0

    def denormalize(self, action: float) -> float:
        """Map a normalised action in ``[-1, 1]`` to a physical value."""
        clipped = float(min(max(action, -1.0), 1.0))
        frac = 0.5 * (clipped + 1.0)
        if self.log_scale:
            log_low, log_high = math.log10(self.lower), math.log10(self.upper)
            value = 10 ** (log_low + frac * (log_high - log_low))
        else:
            value = self.lower + frac * (self.upper - self.lower)
        return self.refine(value)

    def normalize(self, value: float) -> float:
        """Map a physical value back to the ``[-1, 1]`` action range."""
        value = min(max(value, self.lower), self.upper)
        if self.log_scale:
            log_low, log_high = math.log10(self.lower), math.log10(self.upper)
            frac = (math.log10(value) - log_low) / max(log_high - log_low, 1e-12)
        else:
            frac = (value - self.lower) / max(self.upper - self.lower, 1e-12)
        return 2.0 * frac - 1.0

    def refine(self, value: float) -> float:
        """Clamp, snap to grid and round the physical value."""
        value = min(max(value, self.lower), self.upper)
        if self.grid > 0:
            value = round(value / self.grid) * self.grid
            value = min(max(value, self.lower), self.upper)
        if self.integer:
            value = float(int(round(value)))
            value = min(max(value, self.lower), self.upper)
        return value

    def sample(self, rng: np.random.Generator) -> float:
        """Draw a uniformly random physical value (uniform in the action space)."""
        return self.denormalize(rng.uniform(-1.0, 1.0))


def _mosfet_parameter_defs(
    comp: ComponentSpec, tech: TechnologyNode
) -> List[ParameterDef]:
    limits = tech.mos_limits
    w_low, w_high = comp.bounds.get("w", (limits.min_width, limits.max_width))
    l_low, l_high = comp.bounds.get("l", (limits.min_length, limits.max_length))
    m_low, m_high = comp.bounds.get(
        "m", (float(limits.min_multiplier), float(limits.max_multiplier))
    )
    return [
        ParameterDef(comp.name, "w", w_low, w_high, log_scale=True, grid=limits.grid),
        ParameterDef(comp.name, "l", l_low, l_high, log_scale=True, grid=limits.grid),
        ParameterDef(comp.name, "m", m_low, m_high, log_scale=False, integer=True),
    ]


def _passive_parameter_defs(
    comp: ComponentSpec, tech: TechnologyNode
) -> List[ParameterDef]:
    limits = tech.passive_limits
    if comp.ctype is ComponentType.RESISTOR:
        low, high = comp.bounds.get(
            "r", (limits.min_resistance, limits.max_resistance)
        )
        return [ParameterDef(comp.name, "r", low, high, log_scale=True)]
    low, high = comp.bounds.get(
        "c", (limits.min_capacitance, limits.max_capacitance)
    )
    return [ParameterDef(comp.name, "c", low, high, log_scale=True)]


class ParameterSpace:
    """The full design space of one circuit in one technology node.

    Provides the mapping between three equivalent representations of a design
    point:

    * a *sizing* (nested dict ``component -> parameter -> value``),
    * a flat *vector* (used by the black-box baselines), and
    * a per-component *action matrix* in ``[-1, 1]`` (used by the RL agent).
    """

    def __init__(
        self, components: Sequence[ComponentSpec], technology: TechnologyNode
    ):
        self.components = list(components)
        self.technology = technology
        self._defs: List[ParameterDef] = []
        self._defs_by_component: Dict[str, List[ParameterDef]] = {}
        for comp in self.components:
            if comp.ctype.is_mosfet:
                defs = _mosfet_parameter_defs(comp, technology)
            else:
                defs = _passive_parameter_defs(comp, technology)
            self._defs.extend(defs)
            self._defs_by_component[comp.name] = defs

    # --- basic introspection -----------------------------------------------------
    @property
    def dimension(self) -> int:
        """Total number of scalar design parameters."""
        return len(self._defs)

    @property
    def definitions(self) -> List[ParameterDef]:
        """All parameter definitions in canonical (component, parameter) order."""
        return list(self._defs)

    def component_definitions(self, component: str) -> List[ParameterDef]:
        """Parameter definitions of a single component."""
        return list(self._defs_by_component[component])

    def check_sizing(self, sizing: Mapping[str, Mapping[str, float]]) -> None:
        """Raise ``ValueError`` unless ``sizing`` can be simulated here.

        It must name exactly this space's components, each component
        exactly its parameters, and every value must be a finite, positive
        real number (not a bool or a string).  The parameter box is not
        checked: hand-written designs may leave it (the LDO's expert
        ``T7.l`` is below the 180 nm floor at 65 nm and 45 nm).
        """
        expected = set(self._defs_by_component)
        given = set(sizing) if isinstance(sizing, Mapping) else set()
        if given != expected:
            raise ValueError(
                f"sizing components differ: missing {sorted(expected - given)}, "
                f"unexpected {sorted(map(str, given - expected))}"
            )
        for component, defs in self._defs_by_component.items():
            params = sizing[component]
            names = {definition.name for definition in defs}
            if not isinstance(params, Mapping) or set(params) != names:
                raise ValueError(
                    f"{component} must name exactly the parameters {sorted(names)}"
                )
            for name, value in params.items():
                if (
                    isinstance(value, bool)
                    or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)
                    or value <= 0
                ):
                    raise ValueError(
                        f"{component}.{name} must be a finite positive number, "
                        f"got {value!r}"
                    )

    # --- vector <-> sizing ---------------------------------------------------------
    def vector_to_sizing(self, vector: Sequence[float]) -> Sizing:
        """Convert a flat physical-value vector into a sizing dict (refined)."""
        if len(vector) != self.dimension:
            raise ValueError(
                f"expected vector of length {self.dimension}, got {len(vector)}"
            )
        sizing: Sizing = {}
        for definition, value in zip(self._defs, vector):
            sizing.setdefault(definition.component, {})[definition.name] = (
                definition.refine(float(value))
            )
        return self.apply_matching(sizing)

    def sizing_to_vector(self, sizing: Mapping[str, Mapping[str, float]]) -> np.ndarray:
        """Convert a sizing dict into a flat physical-value vector."""
        values = []
        for definition in self._defs:
            values.append(float(sizing[definition.component][definition.name]))
        return np.asarray(values, dtype=float)

    # --- normalised actions ---------------------------------------------------------
    def actions_to_sizing(
        self, actions: Mapping[str, Sequence[float]]
    ) -> Sizing:
        """Denormalise per-component action vectors into a refined sizing.

        Args:
            actions: Mapping from component name to an action vector whose
                length is at least the component's ``action_dim`` (extra
                entries are ignored, which lets the agent use a fixed-width
                action head for all component types).
        """
        sizing: Sizing = {}
        for comp in self.components:
            defs = self._defs_by_component[comp.name]
            action_vector = actions[comp.name]
            values = {}
            for i, definition in enumerate(defs):
                values[definition.name] = definition.denormalize(
                    float(action_vector[i])
                )
            sizing[comp.name] = values
        return self.apply_matching(sizing)

    def sizing_to_actions(
        self, sizing: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, List[float]]:
        """Normalise a sizing back into per-component action vectors."""
        actions: Dict[str, List[float]] = {}
        for comp in self.components:
            defs = self._defs_by_component[comp.name]
            actions[comp.name] = [
                definition.normalize(float(sizing[comp.name][definition.name]))
                for definition in defs
            ]
        return actions

    # --- refinement -----------------------------------------------------------------
    def apply_matching(self, sizing: Sizing) -> Sizing:
        """Force matched components to share identical (geometric-mean) sizes."""
        groups: Dict[str, List[str]] = {}
        for comp in self.components:
            if comp.match_group:
                groups.setdefault(comp.match_group, []).append(comp.name)
        refined = {name: dict(params) for name, params in sizing.items()}
        for members in groups.values():
            if len(members) < 2:
                continue
            defs = self._defs_by_component[members[0]]
            for definition in defs:
                values = [sizing[m][definition.name] for m in members]
                positive = [v for v in values if v > 0]
                if positive and definition.log_scale:
                    merged = float(np.exp(np.mean(np.log(positive))))
                else:
                    merged = float(np.mean(values))
                merged = definition.refine(merged)
                for member in members:
                    refined[member][definition.name] = merged
        return refined

    # --- sampling / bounds ------------------------------------------------------------
    def random_sizing(self, rng: np.random.Generator) -> Sizing:
        """Draw a uniformly random refined sizing."""
        sizing: Sizing = {}
        for comp in self.components:
            sizing[comp.name] = {
                definition.name: definition.sample(rng)
                for definition in self._defs_by_component[comp.name]
            }
        return self.apply_matching(sizing)

    def center_sizing(self) -> Sizing:
        """The sizing at the centre of the normalised action space."""
        actions = {
            comp.name: [0.0] * comp.action_dim for comp in self.components
        }
        return self.actions_to_sizing(actions)

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) physical-value bound vectors for black-box optimizers."""
        lower = np.asarray([d.lower for d in self._defs], dtype=float)
        upper = np.asarray([d.upper for d in self._defs], dtype=float)
        return lower, upper

    def clip_vector(self, vector: Sequence[float]) -> np.ndarray:
        """Clamp a flat physical-value vector into the design space."""
        lower, upper = self.bounds_arrays()
        return np.clip(np.asarray(vector, dtype=float), lower, upper)
