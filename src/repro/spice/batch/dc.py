"""Batched Newton DC operating-point solver with per-design convergence masks.

Stage 1 runs plain Newton (small gmin) for the whole batch in lockstep:
stacked Jacobians, one batched ``np.linalg.solve`` per iteration, per-design
voltage-step damping, and a convergence mask so designs that converged stop
updating while the rest keep iterating — one hard design cannot stall or
perturb the others.  Designs the batched stage cannot converge stay in the
batch: a *masked* homotopy re-solves just the hard subset through the exact
gmin ladder and source-stepping ramp of the scalar solver
(:func:`repro.spice.dc.dc_operating_point`), rung by rung, as stacked
batched solves over shrinking subset templates — no design ever leaves the
vectorized path, and every design ends up at the same operating point the
serial homotopy would have found.

Assembly exploits the linear/nonlinear split: everything except the MOSFETs
is bias-independent, so the static Jacobian (including the gmin diagonal)
and the constant source vector are stamped once per Newton stage; each
iteration then costs one batched matrix–vector product for the linear
residual, one vectorized model evaluation per distinct model card, and two
``np.add.at`` scatters for the device stamps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.batch.model import batch_small_signal_params
from repro.spice.batch.template import CAP_DC_LEAK, BatchTemplate
from repro.spice.circuit import Circuit
from repro.spice.dc import DCSolution


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
        vd = _gather_nodes(x, self.drain)
        vs = _gather_nodes(x, self.source)
        swap = p * (vd - vs) < 0.0
        nd = np.where(swap, self.source[None, :], self.drain[None, :])
        ns = np.where(swap, self.drain[None, :], self.source[None, :])
        vd_eff = np.where(swap, vs, vd)
        vs_eff = np.where(swap, vd, vs)
        vg = _gather_nodes(x, self.gate)
        vb = _gather_nodes(x, self.bulk)
        vgs = p * (vg - vs_eff)
        vds = p * (vd_eff - vs_eff)
        vsb = np.maximum(p * (vs_eff - vb), 0.0)
        return nd, ns, vgs, vds, vsb


def _gather_nodes(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``x[:, nodes]`` with ground (-1) reading as 0; result ``(K, G)``."""
    values = x[:, np.maximum(nodes, 0)]
    return np.where(nodes >= 0, values, 0.0)


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
            params = batch_small_signal_params(
                cg.card, cg.weff[subset], cg.length[subset], vgs, vds, vsb
            )
            i_drain = p * params.ids
            gm, gds = params.gm, params.gds
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
    template: BatchTemplate,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
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

    Returns:
        ``(x, converged, iterations)`` — iterates ``(B, n)``, convergence
        mask ``(B,)`` and per-design iteration counts ``(B,)``.
    """
    x = x0.copy()
    batch = template.batch_size
    converged = np.zeros(batch, dtype=bool)
    diverged = np.zeros(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=int)
    num_nodes = template.num_nodes
    assembler = _DCAssembler(template, gmin, source_scale)

    for _ in range(max_iterations):
        active = np.flatnonzero(~converged & ~diverged)
        if active.size == 0:
            break
        jacobian, residual = assembler.assemble(x[active], active)
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
    template: BatchTemplate,
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
    a subset template of the still-active designs; a design failing a rung
    drops out immediately (its remaining rungs are skipped, matching the
    scalar solver's break-on-failure), while the survivors carry their
    iterate to the next rung.

    Args:
        template: Template of the *full* batch; subset templates are
            re-extracted per rung.
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
        sub_template = template.subset([int(i) for i in indices[active]])
        x_new, conv, iters = batch_newton(
            sub_template,
            x[active],
            gmin,
            source_scale,
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
    """
    circuits = list(circuits)
    if template is None:
        template = BatchTemplate(circuits)
    n = template.num_unknowns
    x0 = np.zeros((template.batch_size, n))
    x0[:, : template.num_nodes] = 0.5 * template.max_supply()[:, None]

    # Strategy 1: plain Newton with a small gmin, whole batch in lockstep.
    x, converged, iterations = batch_newton(
        template, x0, 1e-12, 1.0, max_iterations, abstol, vtol, max_step
    )

    # Strategy 2: masked gmin stepping for the designs plain Newton lost,
    # restarting from the mid-rail guess like the scalar solver.
    hard = np.flatnonzero(~converged)
    if hard.size:
        x_h, ok_h, iters_h = _masked_homotopy(
            template,
            hard,
            x0[hard],
            [(gmin, 1.0) for gmin in GMIN_LADDER],
            max_iterations,
            abstol,
            vtol,
            max_step,
        )
        iterations[hard] += iters_h
        recovered = hard[ok_h]
        x[recovered] = x_h[ok_h]
        converged[recovered] = True

    # Strategy 3: masked source stepping from an all-zero start.
    hard = np.flatnonzero(~converged)
    if hard.size:
        x_s, ok_s, iters_s = _masked_homotopy(
            template,
            hard,
            np.zeros((hard.size, n)),
            [(1e-12, scale) for scale in SOURCE_RAMP],
            max_iterations,
            abstol,
            vtol,
            max_step,
        )
        iterations[hard] += iters_s
        recovered = hard[ok_s]
        x[recovered] = x_s[ok_s]
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
