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

* :class:`_DCAssembler` (behind :func:`batch_dc_operating_point`) runs the
  topology's compiled stamp program
  (:func:`~repro.spice.batch.program.stamp_program`, compiled once per
  topology and model cards).  Everything except the MOSFETs is
  bias-independent: the static Jacobian is summed once per batch, and each
  homotopy rung restricts it by row and adds its gmin diagonal and scaled
  source vector.  Each iteration then costs one batched matrix–vector
  product for the linear residual and one fused MOSFET pass: one model
  evaluation over every device (stacked cards) and one ``np.bincount``
  seeded with the static system.  The bincount adds the device stamps card
  by card, in the order of the per-card scatters it replaced, so results
  keep that rounding bit for bit.  Those sums are ordered differently from
  the scalar element loop, so it agrees with the scalar solver to solver
  precision (~1e-13), not bit for bit.
* :class:`_ScalarOrderAssembler` (behind :func:`stacked_dc_operating_point`)
  is compiled once per template from the element list and adds every
  Jacobian and residual entry in the scalar element-stamping order, with the
  scalar model's libm ``exp``: each row is bit-identical to
  :func:`repro.spice.dc._assemble`, so the stacked solve returns exactly the
  scalar solver's ``x``, ``converged`` and ``iterations``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.batch.model import batch_dc_params
from repro.spice.batch.program import (
    MOSFET_ENTRIES,
    Columns,
    ground_padded,
    stack_columns,
    stamp_program,
)
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


class _DCAssembler:
    """A batch's values bound to its compiled :class:`~repro.spice.batch.program.StampProgram`.

    The bias-independent Jacobian is summed once per batch, without gmin;
    :meth:`system` restricts it to a homotopy rung's rows and adds the
    rung's gmin and scaled sources.  :meth:`stamp` is the fused MOSFET pass
    of a Newton iteration.  With ``dt`` set, capacitors stamp their
    backward-Euler companion conductance ``C/dt`` instead of the DC leak
    (the transient system).
    """

    def __init__(self, template: BatchTemplate, dt: Optional[float] = None):
        program = self.program = stamp_program(template)
        batch = template.batch_size
        leak = np.full(batch, CAP_DC_LEAK)
        capacitance = [leak if dt is None else cap.c / dt for cap in template.capacitors]
        self.static = program.dc_static.sums(program.static_values(template, capacitance))
        self.sources = program.source_values(template, "dc")
        self.weff = stack_columns([group.weff for group in template.mosfets], batch)
        self.length = stack_columns([group.length for group in template.mosfets], batch)

    def jacobian(self, rows: np.ndarray, gmin: float) -> np.ndarray:
        """The static Jacobian ``(K, n, n)`` of ``rows``, gmin on the node diagonal last."""
        n = self.program.num_unknowns
        jacobian = self.static[rows].reshape(len(rows), n, n)
        if gmin > 0:
            nodes = np.arange(self.program.num_nodes)
            jacobian[:, nodes, nodes] += gmin
        return jacobian

    def system(
        self, rows: Optional[np.ndarray], gmin: float, source_scale: float
    ) -> "_DCSystem":
        """The DC system of ``rows`` (``None``: all) at ``gmin`` and ``source_scale``."""
        return _DCSystem(self, rows, gmin, source_scale)

    def stamp(
        self,
        jacobian: np.ndarray,
        residual: np.ndarray,
        x: np.ndarray,
        weff: np.ndarray,
        length: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``jacobian`` and ``residual`` plus every MOSFET's stamps at ``x``.

        One model evaluation over all devices (stacked cards) and one
        ``np.bincount`` seeded with ``jacobian`` ``(K, n, n)`` and
        ``residual`` ``(K, n)``; the devices are added card by card, each
        card's drain currents and then its six Jacobian entries per device.

        Returns:
            The new ``(jacobian, residual)``.
        """
        program = self.program
        devices = program.devices
        count, n = x.shape
        swap, vgs, vds, vsb = devices.bias(x)
        ids, gm, gds, _, _ = batch_dc_params(devices.card, weff, length, vgs, vds, vsb)
        values = np.concatenate(
            [
                jacobian.reshape(count, n * n),
                residual,
                gm,
                gds,
                gm + gds,
                devices.card.polarity * ids,
            ],
            axis=1,
        )
        sums = program.dc_devices.sums(values, swap)
        return sums[:, : n * n].reshape(count, n, n), sums[:, n * n :]


class _DCSystem:
    """A :class:`_DCAssembler` restricted to rows, at one gmin and source scale."""

    def __init__(
        self,
        assembler: _DCAssembler,
        rows: Optional[np.ndarray],
        gmin: float,
        source_scale: float,
    ):
        if rows is None:
            rows = np.arange(len(assembler.static))
        self.assembler = assembler
        self.batch_size = len(rows)
        self.num_nodes = assembler.program.num_nodes
        self.jacobian = assembler.jacobian(rows, gmin)
        self.sources = assembler.program.dc_sources.sums(assembler.sources[rows] * source_scale)
        self.weff = assembler.weff[rows]
        self.length = assembler.length[rows]

    def assemble(
        self, x: np.ndarray, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Jacobian and residual of the ``active`` rows at iterates ``x`` ``(K, n)``."""
        # Advanced indexing already yields a fresh array.
        jacobian = self.jacobian[active]
        residual = np.matmul(jacobian, x[:, :, None])[:, :, 0] + self.sources[active]
        return self.assembler.stamp(
            jacobian, residual, x, self.weff[active], self.length[active]
        )


# Value blocks of the scalar-order assembler, in concatenation order: the
# bias-independent Jacobian entries (gmin's last), the MOSFET ``gm``, ``gds``
# and ``gm + gds``, conductance currents, branch currents, the branch
# equations of voltage sources and of VCVSs, current-source values, drain
# currents and gmin's currents.  A column's sign negates its value where the
# scalar stamp subtracts.
_BLOCKS = ("static", "gm", "gds", "gsum", "cur", "ib", "vkvl", "ekvl", "isrc", "id", "gx")


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
        self.devices = stamp_program(template).devices
        self.weff = stack_columns([group.weff for group in template.mosfets], batch)
        self.length = stack_columns([group.length for group in template.mosfets], batch)
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
                for row, col, kind, sign in MOSFET_ENTRIES:
                    target = entry(normal[row], normal[col])
                    block = _BLOCKS[1 + kind]
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
        self.columns = Columns(
            ground,
            [
                (target, swapped, mosfet, offsets[block] + index, sign)
                for target, swapped, mosfet, block, index, sign in columns
            ],
        )

        def terminals(nodes: list, width: int) -> np.ndarray:
            return np.asarray(nodes, dtype=int).reshape(len(nodes), width).T

        self.static = stack_columns(static, batch)  # (B, C_static)
        self.cond_g = stack_columns(cond_g, batch)
        self.cond_nodes = terminals(cond_nodes, 2)
        self.branch = np.asarray(branch, dtype=int)
        self.vs_nodes = terminals(vs_nodes, 2)
        self.vs_dc = stack_columns(vs_dc, batch)
        self.vcvs_nodes = terminals(vcvs_nodes, 4)
        self.vcvs_gain = stack_columns(vcvs_gain, batch)
        self.i_dc = stack_columns(i_dc, batch)

    def system(
        self, rows: Optional[np.ndarray], gmin: float, source_scale: float
    ) -> "_ScalarOrderSystem":
        """The DC system of ``rows`` (``None``: all) at ``gmin`` and ``source_scale``.

        ``gmin`` must be positive (the scalar solver skips a zero gmin; this
        solver never uses one).
        """
        return _ScalarOrderSystem(self, rows, gmin, source_scale)


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
        self.weff = assembler.weff[rows]
        self.length = assembler.length[rows]

    def _devices(self, x: np.ndarray, active: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Swap mask, drain current, ``gm`` and ``gds`` of every MOSFET, ``(K, M)``."""
        devices = self.assembler.devices
        swap, vgs, vds, vsb = devices.bias(x)
        ids, gm, gds, _, _ = batch_dc_params(
            devices.card, self.weff[active], self.length[active], vgs, vds, vsb, libm_exp=True
        )
        return swap, devices.card.polarity * ids, gm, gds

    def assemble(
        self, x: np.ndarray, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Jacobian and residual of the ``active`` rows at iterates ``x`` ``(K, n)``."""
        a = self.assembler
        count, n = x.shape
        swap, i_drain, gm, gds = self._devices(x, active)
        xg = ground_padded(x)
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
        sums = a.columns.sums(blocks, swap)
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
        _DCAssembler(template).system,
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
