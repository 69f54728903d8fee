"""Batched Newton DC operating-point solver with per-design convergence masks.

Stage 1 runs plain Newton (small gmin) for the whole batch in lockstep:
stacked Jacobians, one batched ``np.linalg.solve`` per iteration, per-design
voltage-step damping, and a convergence mask so designs that converged stop
updating while the rest keep iterating — one hard design cannot stall or
perturb the others.  Designs the batched stage cannot converge stay in the
batch: a *masked* homotopy re-solves just the hard subset through the exact
gmin ladder and source-stepping ramp of the scalar solver
(:func:`repro.spice.dc.dc_operating_point`), rung by rung, as stacked
batched solves over the shrinking set of still-active rows — no design ever
leaves the vectorized path, and every design ends up at the same operating
point the serial homotopy would have found.

The Newton loop is shared; the system it assembles is an argument, and two
assemblers exist:

* :class:`_DCAssembler` (behind :func:`batch_dc_operating_point`) exploits
  the linear/nonlinear split: everything except the MOSFETs is
  bias-independent, so the static Jacobian (including the gmin diagonal)
  and the constant source vector are stamped once per Newton stage; each
  iteration then costs one batched matrix–vector product for the linear
  residual, one vectorized model evaluation per distinct model card, and
  two ``np.add.at`` scatters for the device stamps.  Its sums are ordered
  differently from the scalar element loop, so it agrees with the scalar
  solver to solver precision (~1e-13), not bit for bit.
* :class:`_ScalarOrderAssembler` (behind :func:`stacked_dc_operating_point`)
  is compiled once per template from the element list and adds every
  Jacobian and residual entry in the scalar element-stamping order, with the
  scalar model's libm ``exp``: each row is bit-identical to
  :func:`repro.spice.dc._assemble`, so the stacked solve returns exactly the
  scalar solver's ``x``, ``converged`` and ``iterations``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.batch.model import batch_dc_params, stack_cards
from repro.spice.batch.template import CAP_DC_LEAK, BatchTemplate
from repro.spice.circuit import Circuit
from repro.spice.dc import DCSolution
from repro.spice.elements import (
    MOSFET,
    VCVS,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)


#: Homotopy schedules, identical to the scalar solver's: the gmin ladder
#: restarts from the initial guess and anneals the shunt conductance away;
#: the source ramp restarts from an all-zero iterate and walks the supplies
#: up.  A design must converge on *every* rung to count (matching the
#: scalar solver's break-on-first-failure semantics).
GMIN_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12)
SOURCE_RAMP = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


class _CardGroup:
    """All template MOSFETs sharing one model card, as stacked arrays."""

    def __init__(self, card, groups):
        self.card = card
        self.drain = np.asarray([g.drain for g in groups], dtype=int)  # (G,)
        self.gate = np.asarray([g.gate for g in groups], dtype=int)
        self.source = np.asarray([g.source for g in groups], dtype=int)
        self.bulk = np.asarray([g.bulk for g in groups], dtype=int)
        self.weff = np.stack([g.weff for g in groups], axis=1)  # (B, G)
        self.length = np.stack([g.length for g in groups], axis=1)  # (B, G)

    def bias(self, x: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Effective drain/source and model bias of every device at ``x``.

        Drain and source swap where the polarity-normalised ``vds`` would be
        negative, as in :meth:`repro.spice.elements.MOSFET._bias`.

        Returns:
            ``(nd, ns, vgs, vds, vsb)``, each of shape ``(K, G)``.
        """
        p = self.card.polarity
        xg = _ground_padded(x)
        vd = xg[:, self.drain]
        vs = xg[:, self.source]
        swap = p * (vd - vs) < 0.0
        nd = np.where(swap, self.source[None, :], self.drain[None, :])
        ns = np.where(swap, self.drain[None, :], self.source[None, :])
        vd_eff = np.where(swap, vs, vd)
        vs_eff = np.where(swap, vd, vs)
        vg = xg[:, self.gate]
        vb = xg[:, self.bulk]
        vgs = p * (vg - vs_eff)
        vds = p * (vd_eff - vs_eff)
        vsb = np.maximum(p * (vs_eff - vb), 0.0)
        return nd, ns, vgs, vds, vsb


def _ground_padded(x: np.ndarray) -> np.ndarray:
    """``x`` ``(K, n)`` plus a zero last column, so node ``-1`` (ground) reads 0."""
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)


def stamp_conductance(matrix: np.ndarray, n1: int, n2: int, g: np.ndarray) -> None:
    """Add a per-design conductance ``g`` ``(B,)`` between two fixed nodes."""
    if n1 >= 0:
        matrix[:, n1, n1] += g
    if n2 >= 0:
        matrix[:, n2, n2] += g
    if n1 >= 0 and n2 >= 0:
        matrix[:, n1, n2] -= g
        matrix[:, n2, n1] -= g


class _DCAssembler:
    """Pre-stamped static system + fast per-iteration MOSFET assembly.

    With ``dt`` set, capacitors stamp their backward-Euler companion
    conductance ``C/dt`` instead of the DC leak (the transient system).
    """

    def __init__(
        self,
        template: BatchTemplate,
        gmin: float,
        source_scale: float,
        dt: Optional[float] = None,
    ):
        self.template = template
        self.batch_size = template.batch_size
        self.num_nodes = template.num_nodes
        batch, n = template.batch_size, template.num_unknowns
        j_static = np.zeros((batch, n, n))
        b_static = np.zeros((batch, n))

        for group in template.conductances:
            stamp_conductance(j_static, group.n1, group.n2, group.g)
        for cap in template.capacitors:
            g = np.full(batch, CAP_DC_LEAK) if dt is None else cap.c / dt
            stamp_conductance(j_static, cap.n1, cap.n2, g)

        for source in template.vsources:
            np_, nm, b = source.n_plus, source.n_minus, source.branch
            if np_ >= 0:
                j_static[:, np_, b] += 1.0
                j_static[:, b, np_] += 1.0
            if nm >= 0:
                j_static[:, nm, b] -= 1.0
                j_static[:, b, nm] -= 1.0
            b_static[:, b] -= source.dc * source_scale

        for source in template.isources:
            value = source.dc * source_scale
            if source.n_from >= 0:
                b_static[:, source.n_from] += value
            if source.n_to >= 0:
                b_static[:, source.n_to] -= value

        for element in template.vcvs:
            op_, om, ip, im, b = (
                element.out_plus,
                element.out_minus,
                element.in_plus,
                element.in_minus,
                element.branch,
            )
            if op_ >= 0:
                j_static[:, op_, b] += 1.0
                j_static[:, b, op_] += 1.0
            if om >= 0:
                j_static[:, om, b] -= 1.0
                j_static[:, b, om] -= 1.0
            if ip >= 0:
                j_static[:, b, ip] -= element.gain
            if im >= 0:
                j_static[:, b, im] += element.gain

        if gmin > 0:
            nodes = np.arange(template.num_nodes)
            j_static[:, nodes, nodes] += gmin

        self.j_static = j_static
        self.b_static = b_static

        by_card = {}
        for group in template.mosfets:
            by_card.setdefault(id(group.card), (group.card, []))[1].append(group)
        self.card_groups = [
            _CardGroup(card, groups) for card, groups in by_card.values()
        ]

    def assemble(
        self, x: np.ndarray, subset: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Jacobian and residual for the active designs ``subset``.

        Args:
            x: Iterates of the active designs, shape ``(K, n)``.
            subset: Indices of the active designs within the batch.

        Returns:
            ``(jacobian, residual)`` of shapes ``(K, n, n)`` and ``(K, n)``.
        """
        # Advanced indexing already yields a fresh array — safe to mutate.
        jacobian = self.j_static[subset]
        residual = (
            np.matmul(jacobian, x[:, :, None])[:, :, 0] + self.b_static[subset]
        )
        self.stamp_mosfets(jacobian, residual, x, subset)
        return jacobian, residual

    def stamp_mosfets(
        self,
        jacobian: np.ndarray,
        residual: np.ndarray,
        x: np.ndarray,
        subset: np.ndarray,
    ) -> None:
        """Add every MOSFET's drain current and conductances at ``x`` in place.

        Args:
            jacobian: ``(K, n, n)`` Jacobian of the active designs.
            residual: ``(K, n)`` residual of the active designs.
            x: Iterates of the active designs, shape ``(K, n)``.
            subset: Indices of the active designs within the batch.
        """
        count = x.shape[0]
        for cg in self.card_groups:
            p = cg.card.polarity
            nd, ns, vgs, vds, vsb = cg.bias(x)
            ids, gm, gds, _, _ = batch_dc_params(
                cg.card, cg.weff[subset], cg.length[subset], vgs, vds, vsb
            )
            i_drain = p * ids
            ng = np.broadcast_to(cg.gate[None, :], nd.shape)
            bidx = np.broadcast_to(np.arange(count)[:, None], nd.shape)

            # Residual: drain current in, source current out (ground skipped).
            rows = np.concatenate([nd.ravel(), ns.ravel()])
            vals = np.concatenate([i_drain.ravel(), -i_drain.ravel()])
            bflat = np.concatenate([bidx.ravel(), bidx.ravel()])
            keep = rows >= 0
            np.add.at(residual, (bflat[keep], rows[keep]), vals[keep])

            # Jacobian: the six square-law entries of every device at once.
            g_sum = gm + gds
            rows = np.concatenate(
                [nd.ravel(), nd.ravel(), nd.ravel(), ns.ravel(), ns.ravel(), ns.ravel()]
            )
            cols = np.concatenate(
                [ng.ravel(), nd.ravel(), ns.ravel(), ng.ravel(), nd.ravel(), ns.ravel()]
            )
            vals = np.concatenate(
                [
                    gm.ravel(),
                    gds.ravel(),
                    -g_sum.ravel(),
                    -gm.ravel(),
                    -gds.ravel(),
                    g_sum.ravel(),
                ]
            )
            bflat = np.concatenate([bidx.ravel()] * 6)
            keep = (rows >= 0) & (cols >= 0)
            np.add.at(jacobian, (bflat[keep], rows[keep], cols[keep]), vals[keep])


def _subset_system(
    template: BatchTemplate,
    rows: Optional[np.ndarray],
    gmin: float,
    source_scale: float,
) -> _DCAssembler:
    """A :class:`_DCAssembler` over ``rows`` of ``template`` (``None``: all)."""
    sub = template if rows is None else template.subset(rows)
    return _DCAssembler(sub, gmin, source_scale)


# Value blocks of the scalar-order assembler, in concatenation order: the
# bias-independent Jacobian entries (gmin's last), the MOSFET ``gm``, ``gds``
# and ``gm + gds``, conductance currents, branch currents, the branch
# equations of voltage sources and of VCVSs, current-source values, drain
# currents and gmin's currents.  A column's sign negates its value where the
# scalar stamp subtracts.
_BLOCKS = ("static", "gm", "gds", "gsum", "cur", "ib", "vkvl", "ekvl", "isrc", "id", "gx")
#: ``MOSFET.stamp_dc``'s Jacobian entries in order: ``(row, col)`` terminals
#: (drain, gate, source), value block and sign.
_MOSFET_ENTRIES = (
    ("d", "g", "gm", 1.0),
    ("d", "d", "gds", 1.0),
    ("d", "s", "gsum", -1.0),
    ("s", "g", "gm", -1.0),
    ("s", "d", "gds", -1.0),
    ("s", "s", "gsum", 1.0),
)


class _ScalarOrderAssembler:
    """Stacked DC assembly in the scalar element-stamping order, bit for bit.

    Compiled once per template from the reference element list.  Every
    Jacobian and residual contribution the element loop of
    :func:`repro.spice.dc._assemble` makes becomes one column of a
    ``(K, C)`` value matrix, in the order the loop adds it, and one
    ``np.bincount`` sums each entry over its columns in that order, from
    ``0.0`` like the scalar ``np.zeros``.  A MOSFET column's target is
    picked per row from its unswapped and swapped drain/source, ground
    targets land in a discarded slot, gmin is stamped after every element,
    and the model uses libm ``exp`` (all devices in one call, through
    :func:`~repro.spice.batch.model.stack_cards`).  Each row is thus
    bit-identical to the scalar assembly, unlike :class:`_DCAssembler`.

    :meth:`system` restricts the compiled arrays to a set of rows (a
    homotopy rung's survivors) and binds a gmin and source scale.
    """

    def __init__(self, template: BatchTemplate):
        n = template.num_unknowns
        batch = template.batch_size
        self.num_nodes = template.num_nodes
        self.devices = (
            _CardGroup(stack_cards([g.card for g in template.mosfets]), template.mosfets)
            if template.mosfets
            else None
        )
        device = {group.name: m for m, group in enumerate(template.mosfets)}
        groups = {
            kind: iter(getattr(template, kind))
            for kind in ("conductances", "vsources", "isources", "vcvs")
        }
        # Slots: Jacobian entry (i, j) is i*n + j, residual row i is
        # n*n + i, and n*n + n swallows ground.  One (target, swapped target,
        # MOSFET, block, block column, sign) per column.
        ground = n * n + n
        columns: List[Tuple[int, int, int, str, int, float]] = []
        static: List[np.ndarray] = []

        def entry(row: int, col: int) -> int:
            return row * n + col if row >= 0 and col >= 0 else ground

        def node(row: int) -> int:
            return n * n + row if row >= 0 else ground

        def add(target, block, index, sign=1.0, swapped=None, mosfet=-1) -> None:
            swapped = target if swapped is None else swapped
            columns.append((target, swapped, mosfet, block, index, sign))

        def jacobian(row: int, col: int, value: np.ndarray) -> None:
            add(entry(row, col), "static", len(static))
            static.append(value)

        def branch_stamps(plus: int, minus: int, b: int) -> None:
            one = np.ones(batch)
            for row, col, value in ((plus, b, one), (minus, b, -one), (b, plus, one), (b, minus, -one)):
                jacobian(row, col, value)
            add(node(plus), "ib", len(branch))
            add(node(minus), "ib", len(branch), -1.0)
            branch.append(b)

        cond_nodes, cond_g, branch = [], [], []
        vs_nodes, vs_dc, vcvs_nodes, vcvs_gain, i_dc = [], [], [], [], []
        for element in template.circuits[0].elements:
            if isinstance(element, (Resistor, Capacitor)):
                n1, n2 = element.nodes
                g = (
                    next(groups["conductances"]).g
                    if isinstance(element, Resistor)
                    else np.full(batch, CAP_DC_LEAK)
                )
                for row, col, value in ((n1, n1, g), (n2, n2, g), (n1, n2, -g), (n2, n1, -g)):
                    jacobian(row, col, value)
                add(node(n1), "cur", len(cond_g))
                add(node(n2), "cur", len(cond_g), -1.0)
                cond_nodes.append(element.nodes)
                cond_g.append(g)
            elif isinstance(element, VoltageSource):
                branch_stamps(*element.nodes, element.branch_index)
                add(node(element.branch_index), "vkvl", len(vs_dc))
                vs_nodes.append(element.nodes)
                vs_dc.append(next(groups["vsources"]).dc)
            elif isinstance(element, CurrentSource):
                n_from, n_to = element.nodes
                add(node(n_from), "isrc", len(i_dc))
                add(node(n_to), "isrc", len(i_dc), -1.0)
                i_dc.append(next(groups["isources"]).dc)
            elif isinstance(element, VCVS):
                gain = next(groups["vcvs"]).gain
                op_, om, ip, im = element.nodes
                b = element.branch_index
                branch_stamps(op_, om, b)
                jacobian(b, ip, -gain)
                jacobian(b, im, gain)
                add(node(b), "ekvl", len(vcvs_gain))
                vcvs_nodes.append(element.nodes)
                vcvs_gain.append(gain)
            elif isinstance(element, MOSFET):
                m = device[element.name]
                nd, ng, ns, _ = element.nodes
                normal = {"d": nd, "g": ng, "s": ns}
                swapped = {"d": ns, "g": ng, "s": nd}
                for row, col, block, sign in _MOSFET_ENTRIES:
                    target = entry(normal[row], normal[col])
                    add(target, block, m, sign, entry(swapped[row], swapped[col]), m)
                add(node(nd), "id", m, 1.0, node(ns), m)
                add(node(ns), "id", m, -1.0, node(nd), m)
        # gmin goes last, on every node: diagonal conductance and its current.
        for i in range(self.num_nodes):
            add(entry(i, i), "static", len(static) + i)
            add(node(i), "gx", i)

        sizes = {
            "static": len(static) + self.num_nodes,
            "gm": len(device),
            "gds": len(device),
            "gsum": len(device),
            "cur": len(cond_g),
            "ib": len(branch),
            "vkvl": len(vs_dc),
            "ekvl": len(vcvs_gain),
            "isrc": len(i_dc),
            "id": len(device),
            "gx": self.num_nodes,
        }
        offsets = dict(zip(_BLOCKS, np.cumsum([0] + [sizes[b] for b in _BLOCKS])))
        normal, swapped, mosfet, block, index, sign = zip(*columns)
        self.normal = np.asarray(normal)
        self.swapped = np.asarray(swapped)
        self.mosfet = np.asarray(mosfet)
        self.order = np.asarray([offsets[b] + i for b, i in zip(block, index)])
        self.sign = np.asarray(sign)

        def stacked(values: List[np.ndarray]) -> np.ndarray:
            return np.stack(values, axis=1) if values else np.zeros((batch, 0))

        def terminals(nodes: list, width: int) -> np.ndarray:
            return np.asarray(nodes, dtype=int).reshape(len(nodes), width).T

        self.static = stacked(static)  # (B, C_static)
        self.cond_g = stacked(cond_g)
        self.cond_nodes = terminals(cond_nodes, 2)
        self.branch = np.asarray(branch, dtype=int)
        self.vs_nodes = terminals(vs_nodes, 2)
        self.vs_dc = stacked(vs_dc)
        self.vcvs_nodes = terminals(vcvs_nodes, 4)
        self.vcvs_gain = stacked(vcvs_gain)
        self.i_dc = stacked(i_dc)

    def system(
        self, rows: Optional[np.ndarray], gmin: float, source_scale: float
    ) -> "_ScalarOrderSystem":
        """The DC system of ``rows`` (``None``: all) at ``gmin`` and ``source_scale``.

        ``gmin`` must be positive (the scalar solver skips a zero gmin; this
        solver never uses one).
        """
        return _ScalarOrderSystem(self, rows, gmin, source_scale)


def _accumulate(values: np.ndarray, targets: np.ndarray, slots: int) -> np.ndarray:
    """Per-row sums of ``values`` ``(K, C)`` into ``slots`` entries.

    ``targets`` ``(K, C)`` name each value's entry, ``slots`` itself being
    the discarded ground slot.  ``np.bincount`` adds in index order from
    ``0.0``, so each entry is summed over its columns left to right.

    Returns:
        ``(K, slots)`` sums.
    """
    count = values.shape[0]
    width = slots + 1
    flat = targets + (np.arange(count) * width)[:, None]
    sums = np.bincount(flat.ravel(), weights=values.ravel(), minlength=count * width)
    return sums.reshape(count, width)[:, :slots]


class _ScalarOrderSystem:
    """A :class:`_ScalarOrderAssembler` restricted to rows, at one gmin/source scale."""

    def __init__(
        self,
        assembler: _ScalarOrderAssembler,
        rows: Optional[np.ndarray],
        gmin: float,
        source_scale: float,
    ):
        if rows is None:
            rows = np.arange(assembler.static.shape[0])
        self.assembler = assembler
        self.batch_size = len(rows)
        self.num_nodes = assembler.num_nodes
        self.gmin = gmin
        gmin_columns = np.full((len(rows), assembler.num_nodes), gmin)
        self.static = np.concatenate([assembler.static[rows], gmin_columns], axis=1)
        self.cond_g = assembler.cond_g[rows]
        self.vs_value = assembler.vs_dc[rows] * source_scale
        self.vcvs_gain = assembler.vcvs_gain[rows]
        self.i_value = assembler.i_dc[rows] * source_scale
        if assembler.devices is not None:
            self.weff = assembler.devices.weff[rows]
            self.length = assembler.devices.length[rows]

    def _devices(self, x: np.ndarray, active: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Swap mask, drain current, ``gm`` and ``gds`` of every MOSFET, ``(K, M)``."""
        devices = self.assembler.devices
        if devices is None:
            empty = np.zeros((x.shape[0], 0))
            return empty.astype(bool), empty, empty, empty
        nd, _, vgs, vds, vsb = devices.bias(x)
        ids, gm, gds, _, _ = batch_dc_params(
            devices.card, self.weff[active], self.length[active], vgs, vds, vsb, libm_exp=True
        )
        return nd != devices.drain, devices.card.polarity * ids, gm, gds

    def assemble(
        self, x: np.ndarray, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Jacobian and residual of the ``active`` rows at iterates ``x`` ``(K, n)``."""
        a = self.assembler
        count, n = x.shape
        swap, i_drain, gm, gds = self._devices(x, active)
        xg = _ground_padded(x)
        cond_v = xg[:, a.cond_nodes[0]] - xg[:, a.cond_nodes[1]]
        vs_v = xg[:, a.vs_nodes[0]] - xg[:, a.vs_nodes[1]]
        vcvs_out = xg[:, a.vcvs_nodes[0]] - xg[:, a.vcvs_nodes[1]]
        vcvs_in = xg[:, a.vcvs_nodes[2]] - xg[:, a.vcvs_nodes[3]]
        blocks = np.concatenate(
            [
                self.static[active],
                gm,
                gds,
                gm + gds,
                self.cond_g[active] * cond_v,
                x[:, a.branch],
                vs_v - self.vs_value[active],
                vcvs_out - self.vcvs_gain[active] * vcvs_in,
                self.i_value[active],
                i_drain,
                self.gmin * x[:, : self.num_nodes],
            ],
            axis=1,
        )
        # The appended column reads "not swapped" for columns of no MOSFET (-1).
        swap = np.concatenate([swap, np.zeros((count, 1), dtype=bool)], axis=1)
        targets = np.where(swap[:, a.mosfet], a.swapped, a.normal)
        sums = _accumulate(blocks[:, a.order] * a.sign, targets, n * n + n)
        return sums[:, : n * n].reshape(count, n, n), sums[:, n * n :]


def solve_newton_step(
    jacobian: np.ndarray, residual: np.ndarray, ridge: float = 1e-9
) -> np.ndarray:
    """Batched Newton step; a singular design falls back to least squares.

    ``ridge`` is the diagonal the scalar solver adds before its least-squares
    fallback: ``1e-9`` in DC, none in transient.
    """
    try:
        return np.linalg.solve(jacobian, -residual[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    delta = np.empty_like(residual)
    eye = np.eye(jacobian.shape[-1]) * ridge
    for i in range(jacobian.shape[0]):
        try:
            delta[i] = np.linalg.solve(jacobian[i], -residual[i])
        except np.linalg.LinAlgError:
            delta[i] = np.linalg.lstsq(
                jacobian[i] + eye, -residual[i], rcond=None
            )[0]
    return delta


def batch_newton(
    system,
    x0: np.ndarray,
    max_iterations: int,
    abstol: float,
    vtol: float,
    max_step: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep Newton over the whole batch with per-design convergence.

    Converged designs are frozen (their iterate stops changing) while the
    remaining active designs keep iterating, so the returned solution of each
    design is the one from *its* convergence iteration — exactly what the
    scalar solver would have produced had it run that design alone.

    Args:
        system: The assembled DC system: ``batch_size``, ``num_nodes`` and
            ``assemble(x, active) -> (jacobian, residual)`` — a
            :class:`_DCAssembler` or a :class:`_ScalarOrderSystem`.
        x0: Initial iterates ``(B, n)``.

    Returns:
        ``(x, converged, iterations)`` — iterates ``(B, n)``, convergence
        mask ``(B,)`` and per-design iteration counts ``(B,)``.
    """
    x = x0.copy()
    batch = system.batch_size
    converged = np.zeros(batch, dtype=bool)
    diverged = np.zeros(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=int)
    num_nodes = system.num_nodes

    for _ in range(max_iterations):
        active = np.flatnonzero(~converged & ~diverged)
        if active.size == 0:
            break
        jacobian, residual = system.assemble(x[active], active)
        step = solve_newton_step(jacobian, residual)
        node_step = step[:, :num_nodes]
        if num_nodes:
            biggest = np.max(np.abs(node_step), axis=1)
            scale = np.where(
                biggest > max_step, max_step / np.maximum(biggest, 1e-300), 1.0
            )
            node_step *= scale[:, None]
            step_norm = np.max(np.abs(node_step), axis=1)
        else:
            step_norm = np.zeros(active.size)
        x[active] += step
        iterations[active] += 1
        res_norm = np.max(np.abs(residual), axis=1)
        # A singular/ill-conditioned design can drive its iterate to
        # NaN/inf; once non-finite it never recovers (NaN propagates
        # through assembly), so freeze it as diverged instead of burning
        # the remaining lockstep iterations on it.  NaN tolerance
        # comparisons are False, so a diverged design can never be
        # (mis)marked converged.
        finite = np.isfinite(x[active]).all(axis=1)
        diverged[active[~finite]] = True
        converged[active] = (res_norm < abstol) & (step_norm < vtol) & finite
    return x, converged, iterations


def _masked_homotopy(
    system_for: Callable,
    indices: np.ndarray,
    x_start: np.ndarray,
    schedule: Sequence[Tuple[float, float]],
    max_iterations: int,
    abstol: float,
    vtol: float,
    max_step: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a homotopy ``schedule`` over the batch subset ``indices``.

    Each ``(gmin, source_scale)`` rung is one :func:`batch_newton` call over
    the still-active designs; a design failing a rung drops out immediately
    (its remaining rungs are skipped, matching the scalar solver's
    break-on-failure), while the survivors carry their iterate to the next
    rung.

    Args:
        system_for: ``system_for(rows, gmin, source_scale)`` builds the DC
            system of the given full-batch rows.
        indices: Indices (into the full batch) of the designs to re-solve.
        x_start: Initial iterates of those designs, shape ``(K, n)``.
        schedule: ``(gmin, source_scale)`` rungs, in order.

    Returns:
        ``(x, ok, iterations)`` over the subset — final iterates ``(K, n)``
        (only meaningful where ``ok``), the mask of designs that converged
        on every rung, and the homotopy iterations consumed per design.
    """
    count = len(indices)
    x = np.asarray(x_start, dtype=float).copy()
    ok = np.ones(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    active = np.arange(count)

    for gmin, source_scale in schedule:
        if active.size == 0:
            break
        x_new, conv, iters = batch_newton(
            system_for(indices[active], gmin, source_scale),
            x[active],
            max_iterations,
            abstol,
            vtol,
            max_step,
        )
        iterations[active] += iters
        x[active] = x_new
        ok[active[~conv]] = False
        active = active[conv]
    return x, ok, iterations


def _operating_points(
    circuits: List[Circuit],
    template: BatchTemplate,
    system_for: Callable,
    max_iterations: int,
    abstol: float,
    vtol: float,
    max_step: float,
) -> List[DCSolution]:
    """Plain Newton, then the masked gmin ladder and source ramp.

    ``system_for(rows, gmin, source_scale)`` builds the DC system Newton
    iterates on (``rows=None``: the whole batch).
    """
    n = template.num_unknowns
    x0 = np.zeros((template.batch_size, n))
    x0[:, : template.num_nodes] = 0.5 * template.max_supply()[:, None]
    settings = (max_iterations, abstol, vtol, max_step)

    # Strategy 1: plain Newton with a small gmin, whole batch in lockstep.
    x, converged, iterations = batch_newton(system_for(None, 1e-12, 1.0), x0, *settings)

    # Strategy 2: masked gmin stepping for the designs plain Newton lost,
    # restarting from the mid-rail guess like the scalar solver; strategy 3:
    # masked source stepping from an all-zero start.
    for schedule, start in (
        ([(gmin, 1.0) for gmin in GMIN_LADDER], x0),
        ([(1e-12, scale) for scale in SOURCE_RAMP], np.zeros_like(x0)),
    ):
        hard = np.flatnonzero(~converged)
        if not hard.size:
            break
        x_h, ok_h, iters_h = _masked_homotopy(
            system_for, hard, start[hard], schedule, *settings
        )
        iterations[hard] += iters_h
        recovered = hard[ok_h]
        x[recovered] = x_h[ok_h]
        converged[recovered] = True

    # Belt and braces: a non-finite iterate is never a valid operating
    # point, whatever the tolerance tests said on the way here.  Demote it
    # so downstream metric code reports non-convergence (finite penalty
    # metrics) instead of silently propagating NaN device ops.
    converged &= np.isfinite(x).all(axis=1)

    solutions: List[DCSolution] = []
    for index, circuit in enumerate(circuits):
        solution = DCSolution(
            circuit=circuit,
            x=x[index].copy(),
            converged=bool(converged[index]),
            iterations=int(iterations[index]),
        )
        for mosfet in circuit.mosfets():
            solution.device_ops[mosfet.name] = mosfet.operating_point(solution.x)
        solutions.append(solution)
    return solutions


def batch_dc_operating_point(
    circuits: Sequence[Circuit],
    template: Optional[BatchTemplate] = None,
    max_iterations: int = 150,
    abstol: float = 1e-9,
    vtol: float = 1e-7,
    max_step: float = 0.4,
) -> List[DCSolution]:
    """Find DC operating points for a whole batch of same-topology circuits.

    Stage 1 is the batched plain-Newton solver.  Designs it cannot converge
    stay in the batch: a masked gmin ladder (restarting from the mid-rail
    guess) and then a masked source-stepping ramp (restarting from zero)
    re-solve just the hard subset as stacked batched solves — the same
    schedules, starts and break-on-failure semantics as the scalar
    :func:`repro.spice.dc.dc_operating_point`, so batch evaluation never
    *loses* designs relative to serial evaluation.  Per-design
    :class:`DCSolution` objects are returned, with ``device_ops`` evaluated
    through the scalar model at the converged iterate — downstream AC/noise
    stamping sees exactly the same operating point the serial path would.
    Assembly goes through :class:`_DCAssembler`, so operating points agree
    with the scalar solver to solver precision; see
    :func:`stacked_dc_operating_point` for the bit-identical variant.
    """
    circuits = list(circuits)
    if template is None:
        template = BatchTemplate(circuits)
    return _operating_points(
        circuits,
        template,
        partial(_subset_system, template),
        max_iterations,
        abstol,
        vtol,
        max_step,
    )


def stacked_dc_operating_point(circuits: Sequence[Circuit]) -> List[DCSolution]:
    """Scalar-exact DC operating points of a batch of same-topology circuits.

    The same solver as :func:`batch_dc_operating_point` at the scalar
    solver's default settings, assembled by :class:`_ScalarOrderAssembler`:
    every row's ``x``, ``converged`` and ``iterations`` equal what
    :func:`repro.spice.dc.dc_operating_point` returns for that circuit
    alone.  Homotopy rungs restrict the one compiled assembler by row.
    """
    circuits = list(circuits)
    template = BatchTemplate(circuits)
    return _operating_points(
        circuits,
        template,
        _ScalarOrderAssembler(template).system,
        150,
        1e-9,
        1e-7,
        0.4,
    )
