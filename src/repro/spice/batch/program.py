"""Compiled stamp programs: the batched engine's stamps, compiled once per topology.

The batched engine adds each stamp list of a batch with one ``np.bincount``.
A stamp list compiles to *columns*, one per value an element adds to one
entry of a row's system, in the order the element-by-element ``+=`` stamping
adds them.  ``np.bincount`` sums every entry over its columns left to right,
starting from ``0.0`` (:meth:`Columns.sums`); a *seed* column placed first
starts an entry from a given value instead.  Each sum therefore keeps the
rounding of the stamping it replaces, bit for bit, and rows never mix.

A :class:`StampProgram` holds every stamp list of one topology and set of
model cards:

* ``dc_static`` and ``dc_sources`` — the bias-independent DC Jacobian
  (resistors, capacitor leaks or backward-Euler companions, source and VCVS
  branch patterns) and the source vector;
* ``dc_devices`` — a Newton iteration's MOSFET pass, seeded with the static
  Jacobian and residual: six Jacobian entries and two drain-current
  residual entries per device;
* ``companions`` — the backward-Euler conductances of the MOSFET
  capacitances (transient), and ``capacitors``, the capacitors' conductance
  pattern;
* ``ac_real``, ``ac_imag`` and ``ac_rhs`` — the small-signal system
  ``G + jωC`` and its source vector.

The DC and transient lists take the MOSFETs card by card (in the order the
reference circuit first uses each card object), the AC lists in element
order.  A MOSFET column has two targets, with drain and source as wired and
swapped, and every row picks one from its own bias.

:func:`stamp_program` compiles a program on the first batch of a topology
and caches it process-wide under :attr:`BatchTemplate.key
<repro.spice.batch.template.BatchTemplate.key>`.  A program holds index
arrays and model cards only, never a circuit or an element value, so the
cache grows with the (topology, technology) pairs in use and nothing else.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.batch.model import stack_cards
from repro.spice.batch.template import BatchTemplate

#: One column: target slot, target when its MOSFET is swapped, the MOSFET
#: (-1 for none), the value column it adds and its sign.
Column = Tuple[int, int, int, int, float]

#: ``MOSFET.stamp_dc``'s Jacobian entries in order: ``(row, col)`` terminals
#: (drain, gate, source), value (0 ``gm``, 1 ``gds``, 2 ``gm + gds``) and sign.
MOSFET_ENTRIES = (
    ("d", "g", 0, 1.0),
    ("d", "d", 1, 1.0),
    ("d", "s", 2, -1.0),
    ("s", "g", 0, -1.0),
    ("s", "d", 1, -1.0),
    ("s", "s", 2, 1.0),
)
#: The MOSFET capacitances ``cgs``, ``cgd`` and ``cdb``, by terminal pair.
_CAPACITANCES = (("g", "s"), ("g", "d"), ("d", "b"))


def _pattern(a, b) -> Tuple[tuple, ...]:
    """A conductance between ``a`` and ``b``: ``(row, col, sign)`` in stamping order."""
    return ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0))


def _frozen(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


def stack_columns(arrays: Sequence[np.ndarray], batch: int) -> np.ndarray:
    """``(B,)`` arrays as the columns of a ``(B, len(arrays))`` matrix."""
    return np.stack(arrays, axis=1) if len(arrays) else np.zeros((batch, 0))


class Columns:
    """One compiled stamp list over ``slots`` entries (slot ``slots`` is ground).

    Column ``c`` adds ``sign[c] * values[:, value[c]]`` to slot ``target[c]``,
    or to ``swapped[c]`` in the rows where MOSFET ``device[c]`` conducts with
    drain and source swapped.
    """

    def __init__(self, slots: int, columns: Sequence[Column]):
        self.slots = slots
        target, swapped, device, value, sign = zip(*columns) if columns else ((),) * 5
        self.target = _frozen(target, np.intp)
        self.swapped = _frozen(swapped, np.intp)
        self.device = _frozen(device, np.intp)
        self.value = _frozen(value, np.intp)
        self.sign = _frozen(sign, float)

    def weights(self, values: np.ndarray) -> np.ndarray:
        """Every column's signed value, ``(K, C)``, from ``values`` ``(K, V)``."""
        weights = values[:, self.value]
        weights *= self.sign
        return weights

    def targets(self, swap: Optional[np.ndarray] = None) -> np.ndarray:
        """Every column's slot: ``(C,)``, or ``(K, C)`` under a swap mask ``(K, M)``."""
        if swap is None:
            return self.target
        # The appended column reads "not swapped" for columns of no MOSFET (-1).
        swap = np.concatenate([swap, np.zeros((len(swap), 1), dtype=bool)], axis=1)
        return np.where(swap[:, self.device], self.swapped, self.target)

    def sums(self, values: np.ndarray, swap: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-row sums ``(K, slots)`` of the stamp list over ``values`` ``(K, V)``.

        One ``np.bincount`` over every row, each row in its own block of
        ``slots + 1`` bins; it adds in index order from ``0.0``, so each
        entry is summed over its columns left to right.
        """
        count = values.shape[0]
        width = self.slots + 1
        offsets = (np.arange(count) * width)[:, None]
        if swap is None:
            flat = self.target + offsets
        else:
            flat = self.targets(swap)
            flat += offsets
        weights = self.weights(values)
        sums = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=count * width)
        return sums.reshape(count, width)[:, : self.slots]


def ground_padded(x: np.ndarray) -> np.ndarray:
    """``x`` ``(K, n)`` plus a zero last column, so node ``-1`` (ground) reads 0."""
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)


class Devices:
    """A topology's MOSFETs in element order: terminals and stacked model cards."""

    def __init__(self, template: BatchTemplate):
        groups = template.mosfets
        self.card = stack_cards([group.card for group in groups])
        self.drain = _frozen([group.drain for group in groups], np.intp)
        self.gate = _frozen([group.gate for group in groups], np.intp)
        self.source = _frozen([group.source for group in groups], np.intp)
        self.bulk = _frozen([group.bulk for group in groups], np.intp)

    def bias(self, x: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Drain/source swap and model bias of every device at iterates ``x`` ``(K, n)``.

        Drain and source swap where the polarity-normalised ``vds`` would be
        negative, as in :meth:`repro.spice.elements.MOSFET._bias`.

        Returns:
            ``(swap, vgs, vds, vsb)``, each of shape ``(K, M)``.
        """
        p = self.card.polarity
        xg = ground_padded(x)
        vd = xg[:, self.drain]
        vs = xg[:, self.source]
        swap = p * (vd - vs) < 0.0
        vd_eff = np.where(swap, vs, vd)
        vs_eff = np.where(swap, vd, vs)
        vg = xg[:, self.gate]
        vb = xg[:, self.bulk]
        vgs = p * (vg - vs_eff)
        vds = p * (vd_eff - vs_eff)
        vsb = np.maximum(p * (vs_eff - vb), 0.0)
        return swap, vgs, vds, vsb


class StampProgram:
    """Every stamp list of one topology and set of model cards.

    Compiled from a template's structure only (see the module docstring).
    The value columns the lists read are:

    * static: ``[1, resistor conductances, capacitor conductances, VCVS
      gains]`` (:meth:`static_values`); ``dc_static`` reads them, and
      ``ac_real`` reads them followed by ``[gm, gmb, gds]``;
    * sources: ``[voltage sources, current sources]``, DC values for
      ``dc_sources`` and AC magnitudes for ``ac_rhs``;
    * ``dc_devices``: the ``n*n + n`` seed values (Jacobian, then
      residual), then ``[gm, gds, gm + gds, drain current]``;
    * ``companions``: the conductances of ``[cgs, cgd, cdb]``;
    * ``capacitors``: one conductance per capacitor; ``ac_imag`` reads the
      capacitances followed by ``[cgs, cgd, cdb]``.

    Device values are ``(K, M)`` blocks in element order.
    """

    def __init__(self, template: BatchTemplate):
        n = self.num_unknowns = template.num_unknowns
        self.num_nodes = template.num_nodes
        self.devices = Devices(template)
        mosfets = template.mosfets
        count = len(mosfets)
        square = n * n
        system = square + n  # Jacobian slots, then residual slots
        g0 = 1
        c0 = g0 + len(template.conductances)
        e0 = c0 + len(template.capacitors)
        static_width = e0 + len(template.vcvs)
        first_current = len(template.vsources)

        def matrix(row: int, col: int, ground: int = square) -> int:
            return row * n + col if row >= 0 and col >= 0 else ground

        def vector(row: int, offset: int = 0, ground: int = n) -> int:
            return offset + row if row >= 0 else ground

        def fixed(columns: List[Column], target: int, value: int, sign: float) -> None:
            columns.append((target, target, -1, value, sign))

        def terminals(m: int) -> Tuple[Dict[str, int], Dict[str, int]]:
            group = mosfets[m]
            wired = {"d": group.drain, "g": group.gate, "s": group.source, "b": group.bulk}
            return wired, {**wired, "d": group.source, "s": group.drain}

        def device(columns, m, row, col, value, sign, ground=square) -> None:
            wired, swapped = terminals(m)
            columns.append(
                (
                    matrix(wired[row], wired[col], ground),
                    matrix(swapped[row], swapped[col], ground),
                    m,
                    value,
                    sign,
                )
            )

        by_card: Dict[int, List[int]] = {}
        for m, group in enumerate(mosfets):
            by_card.setdefault(id(group.card), []).append(m)
        card_groups = list(by_card.values())

        # DC: resistors, capacitors, voltage sources, VCVSs (gmin is added
        # per homotopy rung, last), then the source vector.
        dc_static: List[Column] = []
        for k, group in enumerate(template.conductances):
            for row, col, sign in _pattern(group.n1, group.n2):
                fixed(dc_static, matrix(row, col), g0 + k, sign)
        for k, cap in enumerate(template.capacitors):
            for row, col, sign in _pattern(cap.n1, cap.n2):
                fixed(dc_static, matrix(row, col), c0 + k, sign)
        for source in template.vsources:
            p, m, b = source.n_plus, source.n_minus, source.branch
            for row, col, sign in ((p, b, 1.0), (b, p, 1.0), (m, b, -1.0), (b, m, -1.0)):
                fixed(dc_static, matrix(row, col), 0, sign)
        for k, element in enumerate(template.vcvs):
            b = element.branch
            for row, col, value, sign in (
                (element.out_plus, b, 0, 1.0),
                (b, element.out_plus, 0, 1.0),
                (element.out_minus, b, 0, -1.0),
                (b, element.out_minus, 0, -1.0),
                (b, element.in_plus, e0 + k, -1.0),
                (b, element.in_minus, e0 + k, 1.0),
            ):
                fixed(dc_static, matrix(row, col), value, sign)
        dc_sources: List[Column] = []
        for k, source in enumerate(template.vsources):
            fixed(dc_sources, vector(source.branch), k, -1.0)
        for k, source in enumerate(template.isources):
            fixed(dc_sources, vector(source.n_from), first_current + k, 1.0)
            fixed(dc_sources, vector(source.n_to), first_current + k, -1.0)

        # The MOSFET pass, card by card: drain currents, then the Jacobian.
        dc_devices: List[Column] = [(slot, slot, -1, slot, 1.0) for slot in range(system)]
        for members in card_groups:
            for sign, (out, back) in ((1.0, ("d", "s")), (-1.0, ("s", "d"))):
                for m in members:
                    wired, _ = terminals(m)
                    dc_devices.append(
                        (
                            vector(wired[out], square, system),
                            vector(wired[back], square, system),
                            m,
                            system + 3 * count + m,
                            sign,
                        )
                    )
            for row, col, kind, sign in MOSFET_ENTRIES:
                for m in members:
                    device(dc_devices, m, row, col, system + kind * count + m, sign, system)
        companions: List[Column] = []
        for members in card_groups:
            for kind, (a, b) in enumerate(_CAPACITANCES):
                for row, col, sign in _pattern(a, b):
                    for m in members:
                        device(companions, m, row, col, kind * count + m, sign)
        capacitors: List[Column] = []
        for k, cap in enumerate(template.capacitors):
            for row, col, sign in _pattern(cap.n1, cap.n2):
                fixed(capacitors, matrix(row, col), k, sign)

        # AC, in element order: the real part (the gmin diagonal is added
        # last, by the caller), the capacitive part and the source vector.
        ac_real: List[Column] = []
        for k, group in enumerate(template.conductances):
            for row, col, sign in _pattern(group.n1, group.n2):
                fixed(ac_real, matrix(row, col), g0 + k, sign)
        for source in template.vsources:
            p, m, b = source.n_plus, source.n_minus, source.branch
            for row, col, sign in ((p, b, 1.0), (m, b, -1.0), (b, p, 1.0), (b, m, -1.0)):
                fixed(ac_real, matrix(row, col), 0, sign)
        for k, element in enumerate(template.vcvs):
            b = element.branch
            for row, col, value, sign in (
                (element.out_plus, b, 0, 1.0),
                (element.out_minus, b, 0, -1.0),
                (b, element.out_plus, 0, 1.0),
                (b, element.out_minus, 0, -1.0),
                (b, element.in_plus, e0 + k, -1.0),
                (b, element.in_minus, e0 + k, 1.0),
            ):
                fixed(ac_real, matrix(row, col), value, sign)
        ac_imag: List[Column] = list(capacitors)
        for m in range(count):
            # VCCS gm (gate drive) and gmb (bulk drive), then the output gds.
            for kind, drive in ((0, "g"), (1, "b")):
                for row, col, sign in (
                    ("d", drive, 1.0),
                    ("d", "s", -1.0),
                    ("s", drive, -1.0),
                    ("s", "s", 1.0),
                ):
                    device(ac_real, m, row, col, static_width + kind * count + m, sign)
            for row, col, sign in _pattern("d", "s"):
                device(ac_real, m, row, col, static_width + 2 * count + m, sign)
            for kind, (a, b) in enumerate(_CAPACITANCES):
                for row, col, sign in _pattern(a, b):
                    device(ac_imag, m, row, col, e0 - c0 + kind * count + m, sign)
        ac_rhs: List[Column] = []
        for k, source in enumerate(template.vsources):
            fixed(ac_rhs, vector(source.branch), k, 1.0)
        for k, source in enumerate(template.isources):
            fixed(ac_rhs, vector(source.n_from), first_current + k, -1.0)
            fixed(ac_rhs, vector(source.n_to), first_current + k, 1.0)

        self.dc_static = Columns(square, dc_static)
        self.dc_sources = Columns(n, dc_sources)
        self.dc_devices = Columns(system, dc_devices)
        self.companions = Columns(square, companions)
        self.capacitors = Columns(square, capacitors)
        self.ac_real = Columns(square, ac_real)
        self.ac_imag = Columns(square, ac_imag)
        self.ac_rhs = Columns(n, ac_rhs)

    @staticmethod
    def static_values(
        template: BatchTemplate, capacitor_conductance: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``[1, resistor conductances, capacitor conductances, VCVS gains]``, ``(B, P)``."""
        batch = template.batch_size
        return np.concatenate(
            [
                np.ones((batch, 1)),
                stack_columns([group.g for group in template.conductances], batch),
                stack_columns(capacitor_conductance, batch),
                stack_columns([element.gain for element in template.vcvs], batch),
            ],
            axis=1,
        )

    @staticmethod
    def source_values(template: BatchTemplate, field: str) -> np.ndarray:
        """The ``dc`` or ``ac`` values of the voltage, then current sources, ``(B, S)``."""
        return stack_columns(
            [getattr(source, field) for source in template.vsources + template.isources],
            template.batch_size,
        )


#: Compiled programs by :attr:`BatchTemplate.key`, shared by every thread.
_PROGRAMS: Dict[tuple, StampProgram] = {}
_PROGRAMS_LOCK = threading.Lock()


def stamp_program(template: BatchTemplate) -> StampProgram:
    """The compiled stamp program of ``template``'s topology and model cards.

    Compiled on the first batch of a topology and cached for the process;
    safe to call from several threads at once.
    """
    with _PROGRAMS_LOCK:
        program = _PROGRAMS.get(template.key)
        if program is None:
            program = _PROGRAMS[template.key] = StampProgram(template)
    return program
