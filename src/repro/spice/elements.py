"""Circuit elements and their MNA stamps.

Every element knows how to stamp itself into three kinds of systems:

* the nonlinear DC system (Jacobian + residual, via :class:`SystemStamper`),
* the complex AC small-signal system, and
* the transient companion system (DC-like, with capacitor companion models).

Node indices are resolved by the :class:`repro.spice.circuit.Circuit` before
any analysis runs; ground maps to index ``-1`` and is skipped by the stamper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.technology.mosfet_model import MOSFETModelCard, OperatingPoint, small_signal_params

BOLTZMANN = 1.380649e-23
ROOM_TEMPERATURE = 300.0


class SystemStamper:
    """Accumulates MNA matrix and right-hand-side entries, skipping ground."""

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray):
        self.matrix = matrix
        self.rhs = rhs

    def add_matrix(self, row: int, col: int, value: complex) -> None:
        """Add ``value`` at (row, col); either index may be -1 (ground)."""
        if row < 0 or col < 0:
            return
        self.matrix[row, col] += value

    def add_rhs(self, row: int, value: complex) -> None:
        """Add ``value`` to the right-hand side at ``row`` (skip ground)."""
        if row < 0:
            return
        self.rhs[row] += value

    def add_conductance(self, n1: int, n2: int, g: complex) -> None:
        """Stamp a two-terminal conductance between nodes ``n1`` and ``n2``."""
        self.add_matrix(n1, n1, g)
        self.add_matrix(n2, n2, g)
        self.add_matrix(n1, n2, -g)
        self.add_matrix(n2, n1, -g)

    def add_transconductance(
        self, out_p: int, out_n: int, in_p: int, in_n: int, gm: complex
    ) -> None:
        """Stamp a VCCS: current ``gm * (v_inp - v_inn)`` into ``out_p``→``out_n``."""
        self.add_matrix(out_p, in_p, gm)
        self.add_matrix(out_p, in_n, -gm)
        self.add_matrix(out_n, in_p, -gm)
        self.add_matrix(out_n, in_n, gm)


@dataclass
class NoiseContribution:
    """A white or 1/f current-noise source between two circuit nodes.

    ``psd(f)`` returns the one-sided current power spectral density [A^2/Hz]
    at frequency ``f``, a float or an array of frequencies (then one value
    per frequency, in one call).
    """

    name: str
    node_a: int
    node_b: int
    psd: Callable[[Union[float, np.ndarray]], Union[float, np.ndarray]]


def _voltage_at(v: np.ndarray, node: int) -> float:
    return 0.0 if node < 0 else float(v[node])


class Element:
    """Base class for all circuit elements."""

    #: number of extra MNA branch-current unknowns this element introduces
    num_branches = 0

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = name
        self.node_names: Tuple[str, ...] = tuple(nodes)
        self.nodes: Tuple[int, ...] = tuple(-1 for _ in nodes)
        self.branch_index: int = -1

    def bind(self, node_indices: Sequence[int], branch_index: int = -1) -> None:
        """Resolve node names to MNA indices (done by :class:`Circuit`)."""
        self.nodes = tuple(node_indices)
        self.branch_index = branch_index

    # --- DC -----------------------------------------------------------------
    def stamp_dc(
        self,
        stamper: SystemStamper,
        residual: np.ndarray,
        v: np.ndarray,
        source_scale: float = 1.0,
    ) -> None:
        """Stamp Jacobian entries into ``stamper`` and currents into ``residual``."""

    # --- AC -----------------------------------------------------------------
    def stamp_ac(
        self,
        stamper: SystemStamper,
        omega: float,
        op: Dict[str, OperatingPoint],
    ) -> None:
        """Stamp the small-signal complex system at angular frequency ``omega``."""

    # --- transient ----------------------------------------------------------
    def stamp_transient(
        self,
        stamper: SystemStamper,
        residual: np.ndarray,
        v: np.ndarray,
        v_prev: np.ndarray,
        dt: float,
        time: float,
    ) -> None:
        """Stamp the companion model for one backward-Euler timestep."""
        # Default: behave exactly like DC (resistive elements, DC sources).
        self.stamp_dc(stamper, residual, v, source_scale=1.0)

    # --- noise ----------------------------------------------------------------
    def noise_contributions(
        self, op: Dict[str, OperatingPoint]
    ) -> List[NoiseContribution]:
        """Current-noise sources contributed by this element (default: none)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name}, nodes={self.node_names})"


class Resistor(Element):
    """Ideal linear resistor."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float):
        super().__init__(name, (n1, n2))
        if resistance <= 0:
            raise ValueError(f"resistor {name} must have positive resistance")
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp_dc(self, stamper, residual, v, source_scale=1.0):
        n1, n2 = self.nodes
        g = self.conductance
        stamper.add_conductance(n1, n2, g)
        current = g * (_voltage_at(v, n1) - _voltage_at(v, n2))
        if n1 >= 0:
            residual[n1] += current
        if n2 >= 0:
            residual[n2] -= current

    def stamp_ac(self, stamper, omega, op):
        stamper.add_conductance(self.nodes[0], self.nodes[1], self.conductance)

    def noise_contributions(self, op):
        psd_value = 4.0 * BOLTZMANN * ROOM_TEMPERATURE * self.conductance

        return [
            NoiseContribution(
                name=f"{self.name}:thermal",
                node_a=self.nodes[0],
                node_b=self.nodes[1],
                psd=lambda f, p=psd_value: np.full(np.shape(f), p),
            )
        ]


class Capacitor(Element):
    """Ideal linear capacitor (open in DC, companion model in transient)."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float):
        super().__init__(name, (n1, n2))
        if capacitance <= 0:
            raise ValueError(f"capacitor {name} must have positive capacitance")
        self.capacitance = float(capacitance)

    def stamp_dc(self, stamper, residual, v, source_scale=1.0):
        # Open circuit at DC.  A tiny conductance keeps floating nodes solvable.
        n1, n2 = self.nodes
        g = 1e-12
        stamper.add_conductance(n1, n2, g)
        current = g * (_voltage_at(v, n1) - _voltage_at(v, n2))
        if n1 >= 0:
            residual[n1] += current
        if n2 >= 0:
            residual[n2] -= current

    def stamp_ac(self, stamper, omega, op):
        stamper.add_conductance(self.nodes[0], self.nodes[1], 1j * omega * self.capacitance)

    def stamp_transient(self, stamper, residual, v, v_prev, dt, time):
        n1, n2 = self.nodes
        geq = self.capacitance / dt
        v_now = _voltage_at(v, n1) - _voltage_at(v, n2)
        v_old = _voltage_at(v_prev, n1) - _voltage_at(v_prev, n2)
        current = geq * (v_now - v_old)
        stamper.add_conductance(n1, n2, geq)
        if n1 >= 0:
            residual[n1] += current
        if n2 >= 0:
            residual[n2] -= current


class VoltageSource(Element):
    """Independent voltage source with DC, AC-magnitude and waveform terms.

    ``waveform`` (if given) is a callable ``t -> volts`` used by transient
    analysis; DC analysis uses ``dc`` and AC analysis uses ``ac`` as the
    stimulus magnitude.
    """

    num_branches = 1

    def __init__(
        self,
        name: str,
        n_plus: str,
        n_minus: str,
        dc: float = 0.0,
        ac: float = 0.0,
        waveform: Optional[Callable[[float], float]] = None,
    ):
        super().__init__(name, (n_plus, n_minus))
        self.dc = float(dc)
        self.ac = float(ac)
        self.waveform = waveform

    def value_at(self, time: Optional[float]) -> float:
        """Source value in transient at ``time`` (or the DC value if no waveform)."""
        if time is None or self.waveform is None:
            return self.dc
        return float(self.waveform(time))

    def _stamp_branch(self, stamper, residual, v, value):
        np_, nm = self.nodes
        b = self.branch_index
        stamper.add_matrix(np_, b, 1.0)
        stamper.add_matrix(nm, b, -1.0)
        stamper.add_matrix(b, np_, 1.0)
        stamper.add_matrix(b, nm, -1.0)
        i_branch = float(v[b])
        if np_ >= 0:
            residual[np_] += i_branch
        if nm >= 0:
            residual[nm] -= i_branch
        residual[b] += _voltage_at(v, np_) - _voltage_at(v, nm) - value

    def stamp_dc(self, stamper, residual, v, source_scale=1.0):
        self._stamp_branch(stamper, residual, v, self.dc * source_scale)

    def stamp_ac(self, stamper, omega, op):
        np_, nm = self.nodes
        b = self.branch_index
        stamper.add_matrix(np_, b, 1.0)
        stamper.add_matrix(nm, b, -1.0)
        stamper.add_matrix(b, np_, 1.0)
        stamper.add_matrix(b, nm, -1.0)
        stamper.add_rhs(b, self.ac)

    def stamp_transient(self, stamper, residual, v, v_prev, dt, time):
        self._stamp_branch(stamper, residual, v, self.value_at(time))


class CurrentSource(Element):
    """Independent current source driving current from ``n_from`` to ``n_to``.

    A positive ``dc`` value pulls current out of ``n_from`` and pushes it into
    ``n_to`` (so ``CurrentSource("IB", "vdd", "bias", 10e-6)`` delivers 10 µA
    into the ``bias`` node).
    """

    def __init__(
        self,
        name: str,
        n_from: str,
        n_to: str,
        dc: float = 0.0,
        ac: float = 0.0,
        waveform: Optional[Callable[[float], float]] = None,
    ):
        super().__init__(name, (n_from, n_to))
        self.dc = float(dc)
        self.ac = float(ac)
        self.waveform = waveform

    def value_at(self, time: Optional[float]) -> float:
        """Source value in transient at ``time`` (or the DC value if no waveform)."""
        if time is None or self.waveform is None:
            return self.dc
        return float(self.waveform(time))

    def _stamp_value(self, residual, value):
        n_from, n_to = self.nodes
        if n_from >= 0:
            residual[n_from] += value
        if n_to >= 0:
            residual[n_to] -= value

    def stamp_dc(self, stamper, residual, v, source_scale=1.0):
        self._stamp_value(residual, self.dc * source_scale)

    def stamp_ac(self, stamper, omega, op):
        n_from, n_to = self.nodes
        stamper.add_rhs(n_from, -self.ac)
        stamper.add_rhs(n_to, self.ac)

    def stamp_transient(self, stamper, residual, v, v_prev, dt, time):
        self._stamp_value(residual, self.value_at(time))


class VCVS(Element):
    """Voltage-controlled voltage source (ideal, gain ``mu``)."""

    num_branches = 1

    def __init__(
        self,
        name: str,
        out_plus: str,
        out_minus: str,
        in_plus: str,
        in_minus: str,
        gain: float,
    ):
        super().__init__(name, (out_plus, out_minus, in_plus, in_minus))
        self.gain = float(gain)

    def _stamp(self, stamper, residual, v):
        op_, om, ip, im = self.nodes
        b = self.branch_index
        stamper.add_matrix(op_, b, 1.0)
        stamper.add_matrix(om, b, -1.0)
        stamper.add_matrix(b, op_, 1.0)
        stamper.add_matrix(b, om, -1.0)
        stamper.add_matrix(b, ip, -self.gain)
        stamper.add_matrix(b, im, self.gain)
        i_branch = float(v[b]) if len(v) > b >= 0 else 0.0
        if op_ >= 0:
            residual[op_] += i_branch
        if om >= 0:
            residual[om] -= i_branch
        residual[b] += (
            _voltage_at(v, op_)
            - _voltage_at(v, om)
            - self.gain * (_voltage_at(v, ip) - _voltage_at(v, im))
        )

    def stamp_dc(self, stamper, residual, v, source_scale=1.0):
        self._stamp(stamper, residual, v)

    def stamp_ac(self, stamper, omega, op):
        op_, om, ip, im = self.nodes
        b = self.branch_index
        stamper.add_matrix(op_, b, 1.0)
        stamper.add_matrix(om, b, -1.0)
        stamper.add_matrix(b, op_, 1.0)
        stamper.add_matrix(b, om, -1.0)
        stamper.add_matrix(b, ip, -self.gain)
        stamper.add_matrix(b, im, self.gain)

    def stamp_transient(self, stamper, residual, v, v_prev, dt, time):
        self._stamp(stamper, residual, v)


class MOSFET(Element):
    """Square-law MOSFET (drain, gate, source, bulk) with a technology model card."""

    THERMAL_NOISE_GAMMA = 2.0 / 3.0

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        card: MOSFETModelCard,
        width: float,
        length: float,
        multiplier: int = 1,
    ):
        super().__init__(name, (drain, gate, source, bulk))
        self.card = card
        self.width = float(width)
        self.length = float(length)
        self.multiplier = int(multiplier)

    @property
    def effective_width(self) -> float:
        """Total gate width including the finger multiplier."""
        return self.width * self.multiplier

    def set_geometry(self, width: float, length: float, multiplier: int) -> None:
        """Update the device geometry (used by the sizing environment)."""
        self.width = float(width)
        self.length = float(length)
        self.multiplier = int(multiplier)

    def _bias(self, v: np.ndarray) -> Tuple[int, int, float, float, float]:
        """Resolve effective drain/source ordering and polarity-normalised bias."""
        nd, ng, ns, nb = self.nodes
        p = self.card.polarity
        vd = _voltage_at(v, nd)
        vs = _voltage_at(v, ns)
        if p * (vd - vs) < 0.0:
            nd, ns = ns, nd
            vd, vs = vs, vd
        vg = _voltage_at(v, ng)
        vb = _voltage_at(v, nb)
        vgs = p * (vg - vs)
        vds = p * (vd - vs)
        vsb = p * (vs - vb)
        return nd, ns, vgs, vds, max(vsb, 0.0)

    def operating_point(self, v: np.ndarray) -> OperatingPoint:
        """Evaluate the device model at the node-voltage vector ``v``."""
        nd, ns, vgs, vds, vsb = self._bias(v)
        op = small_signal_params(
            self.card, self.effective_width, self.length, vgs, vds, vsb
        )
        op.field_extra["drain_index"] = nd
        op.field_extra["source_index"] = ns
        op.field_extra["gate_index"] = self.nodes[1]
        op.field_extra["bulk_index"] = self.nodes[3]
        return op

    def stamp_dc(self, stamper, residual, v, source_scale=1.0):
        op = self.operating_point(v)
        nd = int(op.field_extra["drain_index"])
        ns = int(op.field_extra["source_index"])
        ng = self.nodes[1]
        p = self.card.polarity
        gm, gds = op.gm, op.gds

        # Signed drain current (current flowing into the effective drain terminal).
        i_drain = p * op.ids
        if nd >= 0:
            residual[nd] += i_drain
        if ns >= 0:
            residual[ns] -= i_drain

        # Jacobian entries (polarity-independent, see derivation in docs).
        stamper.add_matrix(nd, ng, gm)
        stamper.add_matrix(nd, nd, gds)
        stamper.add_matrix(nd, ns, -(gm + gds))
        stamper.add_matrix(ns, ng, -gm)
        stamper.add_matrix(ns, nd, -gds)
        stamper.add_matrix(ns, ns, gm + gds)

    def stamp_ac(self, stamper, omega, op_table):
        op = op_table[self.name]
        nd = int(op.field_extra["drain_index"])
        ns = int(op.field_extra["source_index"])
        ng = int(op.field_extra["gate_index"])
        nb = int(op.field_extra["bulk_index"])

        stamper.add_transconductance(nd, ns, ng, ns, op.gm)
        stamper.add_transconductance(nd, ns, nb, ns, op.gmb)
        stamper.add_conductance(nd, ns, op.gds)
        stamper.add_conductance(ng, ns, 1j * omega * op.cgs)
        stamper.add_conductance(ng, nd, 1j * omega * op.cgd)
        stamper.add_conductance(nd, nb, 1j * omega * op.cdb)

    def stamp_transient(self, stamper, residual, v, v_prev, dt, time):
        self.stamp_dc(stamper, residual, v)
        # Quasi-static gate/junction capacitances: evaluated at the previous
        # timestep's solution and held constant during the Newton iterations
        # of the current step, then stamped as backward-Euler companions.
        op = self.operating_point(v_prev)
        nd = int(op.field_extra["drain_index"])
        ns = int(op.field_extra["source_index"])
        ng = self.nodes[1]
        nb = self.nodes[3]
        for n1, n2, cap in (
            (ng, ns, op.cgs),
            (ng, nd, op.cgd),
            (nd, nb, op.cdb),
        ):
            if cap <= 0:
                continue
            geq = cap / dt
            v_now = _voltage_at(v, n1) - _voltage_at(v, n2)
            v_old = _voltage_at(v_prev, n1) - _voltage_at(v_prev, n2)
            current = geq * (v_now - v_old)
            stamper.add_conductance(n1, n2, geq)
            if n1 >= 0:
                residual[n1] += current
            if n2 >= 0:
                residual[n2] -= current

    def noise_contributions(self, op_table):
        op = op_table[self.name]
        nd = int(op.field_extra["drain_index"])
        ns = int(op.field_extra["source_index"])
        gm = max(op.gm, 1e-15)
        ids = abs(op.ids)
        card = self.card
        area = max(self.effective_width * self.length, 1e-18)
        thermal = 4.0 * BOLTZMANN * ROOM_TEMPERATURE * self.THERMAL_NOISE_GAMMA * gm
        flicker_scale = card.kf * (ids**card.af) / (card.cox * area)

        def psd(f, th=thermal, fl=flicker_scale):
            return th + fl / np.maximum(f, 1e-3)

        return [
            NoiseContribution(
                name=f"{self.name}:channel",
                node_a=nd,
                node_b=ns,
                psd=psd,
            )
        ]
