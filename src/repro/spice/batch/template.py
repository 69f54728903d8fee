"""Batch template: one topology, per-design element value arrays.

A :class:`BatchTemplate` is built from a list of circuits produced by the
same :meth:`~repro.circuits.base.CircuitDesign.build_circuit` for different
sizings.  It asserts that the circuits are structurally identical (same
elements, nodes, MNA indices and MOSFET model cards, in the same order) and
gathers each element's per-design values into ``(B,)`` arrays, which is what
the batched DC/AC/noise engines stamp from.  Its :attr:`~BatchTemplate.key`
names the shared structure and cards; the engines look their compiled stamp
program up under it (:func:`repro.spice.batch.program.stamp_program`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.spice.circuit import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    MOSFET,
    Resistor,
    VCVS,
    VoltageSource,
)
from repro.technology.mosfet_model import MOSFETModelCard

#: Leak conductance a capacitor presents at DC (matches ``Capacitor.stamp_dc``).
CAP_DC_LEAK = 1e-12
#: Diagonal gmin used by both DC Newton stage 1 and AC assembly.
AC_GMIN = 1e-12


class BatchIncompatibleError(ValueError):
    """The circuits of a batch do not share one topology (or use elements
    the batched engine has no stamps for).

    Normally caught by the vectorized evaluator (serial fallback); if one
    ever escapes the stack it classifies as a ``simulator_error``.
    """

    failure_kind = "simulator_error"


@dataclass
class _ConductanceGroup:
    """A fixed two-terminal conductance per design (resistors, cap DC leak)."""

    n1: int
    n2: int
    g: np.ndarray  # (B,)


@dataclass
class _CapacitorGroup:
    n1: int
    n2: int
    c: np.ndarray  # (B,)


@dataclass
class _SourceGroup:
    """Voltage source: branch row/column pattern plus per-design dc/ac."""

    n_plus: int
    n_minus: int
    branch: int
    dc: np.ndarray  # (B,)
    ac: np.ndarray  # (B,)


@dataclass
class _CurrentGroup:
    n_from: int
    n_to: int
    dc: np.ndarray  # (B,)
    ac: np.ndarray  # (B,)


@dataclass
class _VCVSGroup:
    out_plus: int
    out_minus: int
    in_plus: int
    in_minus: int
    branch: int
    gain: np.ndarray  # (B,)


@dataclass
class _MOSFETGroup:
    name: str
    card: MOSFETModelCard
    drain: int
    gate: int
    source: int
    bulk: int
    weff: np.ndarray  # (B,) width * multiplier
    length: np.ndarray  # (B,)


#: The per-element group lists of a :class:`BatchTemplate`.
_GROUP_LISTS = ("conductances", "capacitors", "vsources", "isources", "vcvs", "mosfets")


def _take_rows(group, rows: np.ndarray):
    """A copy of ``group`` whose ``(B,)`` value arrays keep only ``rows``."""
    arrays = {
        f.name: getattr(group, f.name)[rows]
        for f in fields(group)
        if isinstance(getattr(group, f.name), np.ndarray)
    }
    return replace(group, **arrays)


@dataclass
class BatchTemplate:
    """Structural description of a batch of same-topology circuits.

    ``key`` is hashable and equal for two templates exactly when their
    circuits share element types, names, nodes and branches, and model cards
    (by value, together with which devices share one card object).
    """

    circuits: List[Circuit] = field(default_factory=list)
    num_unknowns: int = 0
    num_nodes: int = 0
    key: tuple = ()
    conductances: List[_ConductanceGroup] = field(default_factory=list)
    capacitors: List[_CapacitorGroup] = field(default_factory=list)
    vsources: List[_SourceGroup] = field(default_factory=list)
    isources: List[_CurrentGroup] = field(default_factory=list)
    vcvs: List[_VCVSGroup] = field(default_factory=list)
    mosfets: List[_MOSFETGroup] = field(default_factory=list)

    def __init__(self, circuits: Sequence[Circuit]):
        circuits = list(circuits)
        if not circuits:
            raise BatchIncompatibleError("empty circuit batch")
        for circuit in circuits:
            circuit.ensure_indices()
        self.circuits = circuits
        self._check_compatible()
        reference = circuits[0]
        self.num_unknowns = reference.num_unknowns
        self.num_nodes = reference.num_nodes
        self.conductances = []
        self.capacitors = []
        self.vsources = []
        self.isources = []
        self.vcvs = []
        self.mosfets = []
        self._extract_values()

    @property
    def batch_size(self) -> int:
        return len(self.circuits)

    # --- construction ------------------------------------------------------------
    def _check_compatible(self) -> None:
        reference = self.circuits[0]
        for circuit in self.circuits[1:]:
            if len(circuit.elements) != len(reference.elements):
                raise BatchIncompatibleError(
                    f"circuit {circuit.title!r} has {len(circuit.elements)} "
                    f"elements, expected {len(reference.elements)}"
                )
            if circuit.num_unknowns != reference.num_unknowns:
                raise BatchIncompatibleError(
                    f"circuit {circuit.title!r} has {circuit.num_unknowns} "
                    f"unknowns, expected {reference.num_unknowns}"
                )
            for ours, theirs in zip(reference.elements, circuit.elements):
                if (
                    type(ours) is not type(theirs)
                    or ours.name != theirs.name
                    or ours.nodes != theirs.nodes
                    or ours.branch_index != theirs.branch_index
                ):
                    raise BatchIncompatibleError(
                        f"element {theirs.name!r} of {circuit.title!r} does not "
                        f"match the batch template element {ours.name!r}"
                    )
                # Every row is stamped with the reference's model cards.
                if (
                    isinstance(ours, MOSFET)
                    and ours.card is not theirs.card
                    and ours.card != theirs.card
                ):
                    raise BatchIncompatibleError(
                        f"MOSFET {theirs.name!r} of {circuit.title!r} uses model card "
                        f"{theirs.card.name!r}, the batch template {ours.card.name!r}"
                    )

    def _gather(self, attr_values) -> np.ndarray:
        return np.asarray(attr_values, dtype=float)

    def _extract_values(self) -> None:
        reference = self.circuits[0]
        structure: list = [self.num_unknowns, self.num_nodes]
        card_index: Dict[int, int] = {}
        cards: List[MOSFETModelCard] = []
        for position, element in enumerate(reference.elements):
            peers = [circuit.elements[position] for circuit in self.circuits]
            signature = (type(element), element.name, element.nodes, element.branch_index)
            if isinstance(element, MOSFET):
                if id(element.card) not in card_index:
                    card_index[id(element.card)] = len(cards)
                    cards.append(element.card)
                signature += (card_index[id(element.card)],)
            structure.append(signature)
            if isinstance(element, Resistor):
                n1, n2 = element.nodes
                self.conductances.append(
                    _ConductanceGroup(
                        n1, n2, self._gather([e.conductance for e in peers])
                    )
                )
            elif isinstance(element, Capacitor):
                n1, n2 = element.nodes
                self.capacitors.append(
                    _CapacitorGroup(
                        n1, n2, self._gather([e.capacitance for e in peers])
                    )
                )
            elif isinstance(element, VoltageSource):
                np_, nm = element.nodes
                self.vsources.append(
                    _SourceGroup(
                        np_,
                        nm,
                        element.branch_index,
                        self._gather([e.dc for e in peers]),
                        self._gather([e.ac for e in peers]),
                    )
                )
            elif isinstance(element, CurrentSource):
                n_from, n_to = element.nodes
                self.isources.append(
                    _CurrentGroup(
                        n_from,
                        n_to,
                        self._gather([e.dc for e in peers]),
                        self._gather([e.ac for e in peers]),
                    )
                )
            elif isinstance(element, VCVS):
                op_, om, ip, im = element.nodes
                self.vcvs.append(
                    _VCVSGroup(
                        op_,
                        om,
                        ip,
                        im,
                        element.branch_index,
                        self._gather([e.gain for e in peers]),
                    )
                )
            elif isinstance(element, MOSFET):
                nd, ng, ns, nb = element.nodes
                self.mosfets.append(
                    _MOSFETGroup(
                        element.name,
                        element.card,
                        nd,
                        ng,
                        ns,
                        nb,
                        self._gather([e.effective_width for e in peers]),
                        self._gather([e.length for e in peers]),
                    )
                )
            else:
                raise BatchIncompatibleError(
                    f"element {element.name!r} of type {type(element).__name__} "
                    "has no batched stamp"
                )
        self.key = (tuple(structure), tuple(cards))

    # --- helpers shared by the engines ---------------------------------------------
    def max_supply(self) -> np.ndarray:
        """Per-design largest |DC voltage-source| value (initial-guess seed)."""
        if not self.vsources:
            return np.zeros(self.batch_size)
        stacked = np.abs(np.stack([source.dc for source in self.vsources]))
        return stacked.max(axis=0)

    def subset(self, indices: Sequence[int]) -> "BatchTemplate":
        """A new template restricted to ``indices``.

        Slices this template's already-validated value arrays instead of
        re-checking and re-extracting the circuits.
        """
        rows = np.asarray(indices, dtype=int)
        sub = copy.copy(self)
        sub.circuits = [self.circuits[i] for i in rows]
        for name in _GROUP_LISTS:
            setattr(sub, name, [_take_rows(group, rows) for group in getattr(self, name)])
        return sub
