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

Assembly reuses the DC engine's compiled stamp program: the static system
(resistors, capacitor companions ``C/dt``, source branches, gmin) is summed
once, every iteration adds the MOSFET drain currents through the fused
:meth:`_DCAssembler.stamp` pass, and the MOSFET gate/junction capacitances
are evaluated once per step at the previous solution, as the scalar engine
does, and summed with one ``np.bincount``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.spice.batch.dc import _DCAssembler, solve_newton_step
from repro.spice.batch.model import batch_small_signal_params
from repro.spice.batch.program import stack_columns
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
    drain and source taken after the bias-dependent swap: one model
    evaluation over all devices and one ``np.bincount``.
    """
    batch, n = x_prev.shape
    program = assembler.program
    devices = program.devices
    swap, vgs, vds, vsb = devices.bias(x_prev)
    params = batch_small_signal_params(
        devices.card, assembler.weff, assembler.length, vgs, vds, vsb
    )
    caps = np.concatenate([params.cgs, params.cgd, params.cdb], axis=1)
    geq = np.where(caps > 0, caps / dt, 0.0)
    return program.companions.sums(geq, swap).reshape(batch, n, n)


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
    batch, n, num_nodes = template.batch_size, template.num_unknowns, template.num_nodes

    assembler = _DCAssembler(template, dt=dt)
    j_static = assembler.jacobian(np.arange(batch), TRANSIENT_GMIN)
    linear_companions = assembler.program.capacitors.sums(
        stack_columns([cap.c / dt for cap in template.capacitors], batch)
    ).reshape(batch, n, n)
    excitation = _source_vectors(template, times)

    x_prev = np.stack([np.asarray(op.x, dtype=float) for op in initial_ops])
    converged = np.array([bool(op.converged) for op in initial_ops])
    diverged = np.zeros(batch, dtype=bool)
    solutions = np.zeros((batch, len(times), n))
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
            jacobian, residual = assembler.stamp(
                jacobian, residual, x_active, assembler.weff[active], assembler.length[active]
            )
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
