"""Batched adjoint noise analysis over a stack of same-topology circuits.

One batched solve of the transposed AC tensor (``A^T y = e_out``) yields the
adjoint vectors for every (design, frequency) pair at once.  The tensor
comes from the chunk's :class:`~repro.spice.batch.ac.ACSystem`, shared with
the AC sweep.  Each noise source then costs one transfer-impedance lookup
over the whole batch and one array call of its PSD per design, mirroring the
scalar :func:`repro.spice.noise.noise_analysis` arithmetic exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.spice.ac import logspace_frequencies
from repro.spice.batch.ac import ACSystem
from repro.spice.batch.template import BatchTemplate
from repro.spice.dc import DCSolution
from repro.spice.linalg import solve_stacked
from repro.spice.noise import NoiseSolution, _collect_noise_sources


def batch_noise_analysis(
    circuits: Sequence,
    ops: Sequence[DCSolution],
    output_node: str,
    frequencies: Optional[Sequence[float]] = None,
    output_node_neg: Optional[str] = None,
    template: Optional[BatchTemplate] = None,
    system: Optional[ACSystem] = None,
) -> List[NoiseSolution]:
    """Output-referred noise PSD for every design of a batch in one solve.

    Args and semantics match :func:`repro.spice.noise.noise_analysis`; the
    output node is resolved on the template circuit (all circuits share its
    node table).  ``template`` and ``system`` are as in
    :func:`~repro.spice.batch.ac.batch_ac_analysis`.

    Returns:
        One :class:`NoiseSolution` per design.
    """
    circuits = list(circuits)
    if system is None:
        system = ACSystem(BatchTemplate(circuits) if template is None else template, ops)
    if frequencies is None:
        frequencies = logspace_frequencies()
    freqs = np.asarray(list(frequencies), dtype=float)

    reference = circuits[0]
    out_index = reference.node(output_node)
    out_neg_index = reference.node(output_node_neg) if output_node_neg else -1
    batch, n = len(circuits), reference.num_unknowns
    selector = np.zeros(n, dtype=complex)
    if out_index >= 0:
        selector[out_index] = 1.0
    if out_neg_index >= 0:
        selector[out_neg_index] = -1.0

    stacked_rhs = np.broadcast_to(selector, (batch, len(freqs), n))
    adjoints = solve_stacked(
        np.swapaxes(system.tensor(freqs), -1, -2), stacked_rhs, context="batched noise sweep"
    )

    sources = [_collect_noise_sources(circuit, op) for circuit, op in zip(circuits, ops)]
    rows = np.arange(batch)
    total = np.zeros((batch, len(freqs)))
    contributions: List[dict] = [{} for _ in circuits]

    def transfer(nodes: np.ndarray) -> np.ndarray:
        """Adjoint voltage ``(B, F)`` at each row's node, zero on ground (-1)."""
        picked = adjoints[rows, :, nodes]
        picked[nodes < 0] = 0.0
        return picked

    for position, source in enumerate(sources[0]):
        peers = [design[position] for design in sources]
        node_a = np.asarray([peer.node_a for peer in peers])
        node_b = np.asarray([peer.node_b for peer in peers])
        transfer_sq = np.abs(transfer(node_a) - transfer(node_b)) ** 2
        psd = transfer_sq * np.stack([peer.psd(freqs) for peer in peers])
        for row in rows:
            contributions[row][source.name] = psd[row]
        total += psd
    return [
        NoiseSolution(frequencies=freqs, output_psd=total[row], contributions=contributions[row])
        for row in rows
    ]
