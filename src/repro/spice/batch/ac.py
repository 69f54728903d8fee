"""Stacked AC analysis: one complex solve over ``(B, F, n, n)``.

The small-signal system is linear, so the whole batch × frequency grid can
be assembled into one tensor and solved with a single batched LAPACK call.
An :class:`ACSystem` builds the tensor ``G + jωC`` from the compiled stamp
program (:mod:`repro.spice.batch.program`): the frequency-independent part
``G`` (conductances, transconductances, source patterns, gmin) is one
``np.bincount`` per batch, and the capacitive part one ``np.bincount`` per
block of frequencies.  The real and imaginary parts are summed separately,
each entry over its stamps in element order, so the tensor equals the one
the element-by-element stamping built, bit for bit.  Device small-signal
values are read from the per-design
:class:`~repro.spice.dc.DCSolution.device_ops` produced by the DC stage, so
the batched sweep sees exactly the operating point the serial sweep would.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.spice.ac import ACSolution, logspace_frequencies
from repro.spice.batch.program import StampProgram, stack_columns, stamp_program
from repro.spice.batch.template import AC_GMIN, BatchTemplate
from repro.spice.dc import DCSolution
from repro.spice.linalg import solve_stacked

#: Capacitive stamps summed per ``np.bincount``: a block of frequencies
#: holds at most this many (frequency, design, stamp) terms, but always one
#: frequency.  Small batches take a whole grid in one call; a full chunk takes
#: one call per frequency, its temporaries ``O(B·K)`` for ``K`` stamps.
BLOCK_TERMS = 1 << 13


class ACSystem:
    """The small-signal system ``G + jωC`` of a batch at its operating points.

    One system serves a chunk's AC and noise sweeps, whatever their
    frequency grids: ``real`` ``(B, n, n)`` is ``G`` with the gmin diagonal,
    ``rhs`` ``(B, n)`` the AC source vector, and :meth:`tensor` adds the
    capacitive stamps at each frequency of a grid.

    Args:
        template: Template of the batch (the converged designs).
        ops: Converged DC solutions, one per template row.
    """

    def __init__(self, template: BatchTemplate, ops: Sequence[DCSolution]):
        program = stamp_program(template)
        batch, n = template.batch_size, template.num_unknowns
        names = [group.name for group in template.mosfets]
        count = len(names)
        # Per design and device: gm, gmb, gds, cgs, cgd, cdb, effective drain.
        devices = np.array(
            [
                (op.gm, op.gmb, op.gds, op.cgs, op.cgd, op.cdb, op.field_extra["drain_index"])
                for solution in ops
                for op in (solution.device_ops[name] for name in names)
            ],
            dtype=float,
        ).reshape(batch, count, 7)
        swap = devices[:, :, 6] != program.devices.drain
        conductances = devices[:, :, 0:3].transpose(0, 2, 1).reshape(batch, 3 * count)
        capacitances = devices[:, :, 3:6].transpose(0, 2, 1).reshape(batch, 3 * count)
        caps = [cap.c for cap in template.capacitors]

        real_values = np.concatenate(
            [StampProgram.static_values(template, caps), conductances], axis=1
        )
        real = program.ac_real.sums(real_values, swap).reshape(batch, n, n)
        nodes = np.arange(template.num_nodes)
        real[:, nodes, nodes] += AC_GMIN
        self.real = real
        self.rhs = program.ac_rhs.sums(StampProgram.source_values(template, "ac")).astype(complex)

        imag = program.ac_imag
        imag_values = np.concatenate([stack_columns(caps, batch), capacitances], axis=1)
        # Signed capacitances and their flat bincount slots, one row per design.
        self._slots = n * n + 1
        self._capacitance = imag.weights(imag_values)
        self._flat = imag.targets(swap) + (np.arange(batch) * self._slots)[:, None]

    def tensor(self, frequencies: np.ndarray) -> np.ndarray:
        """The stacked complex tensor ``(B, F, n, n)`` at ``frequencies`` [Hz].

        Each capacitive stamp adds ``ω·C`` to the imaginary part, as the
        element stamp ``1j * omega * c`` does.
        """
        omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        batch, n = self.real.shape[:2]
        tensor = np.empty((batch, len(omega), n, n), dtype=complex)
        tensor.real[...] = self.real[:, None]
        span = batch * self._slots
        block = max(1, BLOCK_TERMS // max(self._capacitance.size, 1))
        for start in range(0, len(omega), block):
            stop = min(start + block, len(omega))
            shifts = np.arange(stop - start) * span
            flat = self._flat[None] + shifts[:, None, None]
            weights = omega[start:stop, None, None] * self._capacitance
            sums = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=len(shifts) * span)
            sums = sums.reshape(len(shifts), batch, self._slots)[:, :, : n * n]
            tensor.imag[:, start:stop] = sums.reshape(len(shifts), batch, n, n).swapaxes(0, 1)
        return tensor


def batch_ac_analysis(
    circuits: Sequence,
    ops: Sequence[DCSolution],
    frequencies: Optional[Sequence[float]] = None,
    template: Optional[BatchTemplate] = None,
    system: Optional[ACSystem] = None,
) -> List[ACSolution]:
    """Run one stacked AC sweep for a batch of same-topology circuits.

    Args:
        circuits: Circuits of identical topology (one per design).
        ops: Converged DC solutions, one per circuit.
        frequencies: Sweep frequencies [Hz]; defaults to the scalar sweep's
            1 Hz – 10 GHz grid.
        template: Pre-built batch template (rebuilt from ``circuits`` if
            omitted).
        system: Pre-built small-signal system of ``ops`` (built from the
            template if omitted), e.g. shared with the noise sweep.

    Returns:
        One :class:`ACSolution` per design, shaped exactly like the scalar
        :func:`repro.spice.ac.ac_analysis` result.
    """
    if system is None:
        system = ACSystem(BatchTemplate(circuits) if template is None else template, ops)
    if frequencies is None:
        frequencies = logspace_frequencies()
    freqs = np.asarray(list(frequencies), dtype=float)
    tensor = system.tensor(freqs)
    stacked_rhs = np.broadcast_to(system.rhs[:, None, :], tensor.shape[:-1])
    solutions = solve_stacked(tensor, stacked_rhs, context="batched AC sweep")
    return [
        ACSolution(circuit=circuit, frequencies=freqs, x=solutions[index])
        for index, circuit in enumerate(circuits)
    ]
