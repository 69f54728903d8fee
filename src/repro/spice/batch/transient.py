"""Batched backward-Euler transient analysis over one stacked MNA system.

Every row of the batch — a design, or one stimulus of a design — steps
through the same time grid in lockstep.  Each timestep is a masked Newton
solve that mirrors the scalar :func:`repro.spice.transient.transient_analysis`
exactly: it starts from the previous solution, stops a row as soon as that
row meets its tolerances (the voltage test uses the *undamped* node step,
the update is damped to ``MAX_STEP``), and a row that exhausts its
iterations keeps going from its last iterate but loses its ``converged``
flag.  Rows may carry different stimuli: source waveforms are read from
each row's own circuit.

Assembly reuses the DC engine: the static system (resistors, capacitor
companions ``C/dt``, source branches, gmin) is stamped once, MOSFET drain
currents go through :meth:`_DCAssembler.stamp_mosfets` every iteration, and
the MOSFET gate/junction capacitances are evaluated once per step at the
previous solution, as the scalar engine does.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.spice.batch.dc import _DCAssembler, solve_newton_step, stamp_conductance
from repro.spice.batch.model import batch_small_signal_params
from repro.spice.batch.template import BatchTemplate
from repro.spice.circuit import Circuit
from repro.spice.dc import DCSolution
from repro.spice.elements import CurrentSource, VoltageSource
from repro.spice.transient import TransientSolution

#: Diagonal node conductance of the transient system (the scalar engine's).
TRANSIENT_GMIN = 1e-12
# Per-timestep Newton settings; these mirror the defaults of the scalar
# :func:`repro.spice.transient.transient_analysis`.
#: Newton iterations per timestep.
MAX_ITERATIONS = 60
#: Residual-current tolerance [A].
ABSTOL = 1e-8
#: Voltage-update tolerance [V].
VTOL = 1e-6
#: Per-iteration node-voltage step limit [V].
MAX_STEP = 0.5


def _source_vectors(template: BatchTemplate, times: np.ndarray) -> np.ndarray:
    """Source excitation of every row at every time, shape ``(T, B, n)``.

    Enters the residual as the scalar stamps do: ``-V(t)`` on a voltage
    source's branch row, ``+I(t)`` / ``-I(t)`` on a current source's nodes.
    """
    excitation = np.zeros((len(times), template.batch_size, template.num_unknowns))
    reference = template.circuits[0]
    for position, element in enumerate(reference.elements):
        if not isinstance(element, (VoltageSource, CurrentSource)):
            continue
        values = np.empty((len(times), template.batch_size))
        for row, circuit in enumerate(template.circuits):
            source = circuit.elements[position]
            if source.waveform is None:
                values[:, row] = source.dc
            else:
                values[:, row] = [source.value_at(time) for time in times]
        if isinstance(element, VoltageSource):
            excitation[:, :, element.branch_index] -= values
        else:
            n_from, n_to = element.nodes
            if n_from >= 0:
                excitation[:, :, n_from] += values
            if n_to >= 0:
                excitation[:, :, n_to] -= values
    return excitation


def _mosfet_companions(
    assembler: _DCAssembler, x_prev: np.ndarray, dt: float
) -> np.ndarray:
    """Backward-Euler conductances of the MOSFET capacitances at ``x_prev``.

    Returns the ``(B, n, n)`` conductance matrix of ``cgs`` (gate–source),
    ``cgd`` (gate–drain) and ``cdb`` (drain–bulk) of every device, with
    drain and source taken after the bias-dependent swap.
    """
    batch, n = x_prev.shape
    companions = np.zeros((batch, n, n))
    for cg in assembler.card_groups:
        nd, ns, vgs, vds, vsb = cg.bias(x_prev)
        params = batch_small_signal_params(cg.card, cg.weff, cg.length, vgs, vds, vsb)
        ng = np.broadcast_to(cg.gate[None, :], nd.shape)
        nb = np.broadcast_to(cg.bulk[None, :], nd.shape)
        bidx = np.broadcast_to(np.arange(batch)[:, None], nd.shape).ravel()
        rows, cols, vals = [], [], []
        for n1, n2, cap in ((ng, ns, params.cgs), (ng, nd, params.cgd), (nd, nb, params.cdb)):
            geq = np.where(cap > 0, cap / dt, 0.0).ravel()
            a, b = n1.ravel(), n2.ravel()
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [geq, geq, -geq, -geq]
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        keep = (rows >= 0) & (cols >= 0)
        bflat = np.tile(bidx, len(vals))
        np.add.at(
            companions, (bflat[keep], rows[keep], cols[keep]), np.concatenate(vals)[keep]
        )
    return companions


def batch_transient_analysis(
    circuits: Sequence[Circuit],
    initial_ops: Sequence[DCSolution],
    t_stop: float,
    dt: float,
) -> List[TransientSolution]:
    """Integrate a batch of same-topology circuits from their operating points.

    The batched twin of :func:`repro.spice.transient.transient_analysis`:
    same time grid, same per-step Newton, same tolerances, one
    :class:`TransientSolution` per row.  A row whose iterate turns
    non-finite is frozen as non-converged.

    Args:
        circuits: One circuit per row; waveform sources may differ per row.
        initial_ops: Operating point each row starts from (its ``converged``
            flag seeds the row's).
        t_stop: End time [s].
        dt: Fixed timestep [s].
    """
    circuits = list(circuits)
    template = BatchTemplate(circuits)
    num_steps = max(int(round(t_stop / dt)), 1)
    times = np.linspace(0.0, num_steps * dt, num_steps + 1)
    batch, num_nodes = template.batch_size, template.num_nodes

    assembler = _DCAssembler(template, TRANSIENT_GMIN, 0.0, dt=dt)
    j_static = assembler.j_static
    linear_companions = np.zeros_like(j_static)
    for cap in template.capacitors:
        stamp_conductance(linear_companions, cap.n1, cap.n2, cap.c / dt)
    excitation = _source_vectors(template, times)

    x_prev = np.stack([np.asarray(op.x, dtype=float) for op in initial_ops])
    converged = np.array([bool(op.converged) for op in initial_ops])
    diverged = np.zeros(batch, dtype=bool)
    solutions = np.zeros((batch, len(times), template.num_unknowns))
    solutions[:, 0] = x_prev

    for step in range(1, len(times)):
        mosfet_companions = _mosfet_companions(assembler, x_prev, dt)
        jacobian_step = j_static + mosfet_companions
        # A companion's current is g*(v - v_prev): the Jacobian product
        # supplies g*v, and -g*v_prev is constant over the step.
        companions = linear_companions + mosfet_companions
        rhs_step = excitation[step] - np.matmul(companions, x_prev[:, :, None])[:, :, 0]

        x = x_prev.copy()
        done = diverged.copy()
        for _ in range(MAX_ITERATIONS):
            active = np.flatnonzero(~done)
            if active.size == 0:
                break
            x_active = x[active]
            jacobian = jacobian_step[active]
            residual = np.matmul(jacobian, x_active[:, :, None])[:, :, 0] + rhs_step[active]
            assembler.stamp_mosfets(jacobian, residual, x_active, active)
            delta = solve_newton_step(jacobian, residual, ridge=0.0)
            node_step = delta[:, :num_nodes]
            biggest = np.max(np.abs(node_step), axis=1)
            scale = np.where(biggest > MAX_STEP, MAX_STEP / np.maximum(biggest, 1e-300), 1.0)
            node_step *= scale[:, None]
            x[active] += delta
            finite = np.isfinite(x[active]).all(axis=1)
            diverged[active[~finite]] = True
            res_norm = np.max(np.abs(residual), axis=1)
            done[active] = ((res_norm < ABSTOL) & (biggest < VTOL)) | ~finite
        converged &= done & ~diverged
        solutions[:, step] = x
        x_prev = x

    return [
        TransientSolution(
            circuit=circuit, times=times, x=solutions[row], converged=bool(converged[row])
        )
        for row, circuit in enumerate(circuits)
    ]
