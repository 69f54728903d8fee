"""Vectorized batch MNA engine: solve many sizings of one topology at once.

Optimizers evaluate *populations*: every design in an ES generation, a MACE
proposal batch or an RL warm-up shares the same circuit topology and differs
only in element values.  This package exploits that: the whole batch is
stamped into stacked matrices and solved with single batched LAPACK calls
instead of one small solve per design per frequency.  Every stamp list of a
topology is compiled once per process (:mod:`repro.spice.batch.program`,
keyed by topology and model cards) and summed with ``np.bincount`` in the
element-stamping order, so a Newton iteration is one fused MOSFET pass.

* :class:`BatchTemplate` — validates that a list of circuits share one
  topology and model cards, and extracts per-design element value arrays.
* :func:`batch_dc_operating_point` — batched Newton with per-design
  convergence masks; designs the batched stage cannot converge go through
  a masked gmin/source-stepping homotopy, still batched.  Agrees with the
  scalar solver to solver precision (the plan circuits' DC).
* :func:`stacked_dc_operating_point` — the same solver with every row
  assembled in the scalar stamping order: bit-identical to the scalar
  :func:`~repro.spice.dc.dc_operating_point` (the LDO's DC).
* :class:`ACSystem` — a batch's small-signal system ``G + jωC``, shared by
  its AC and noise sweeps.
* :func:`batch_ac_analysis` — one stacked complex solve over the full
  ``(designs, frequencies, n, n)`` tensor.
* :func:`batch_noise_analysis` — batched adjoint solves (``A^T y = e_out``)
  over the same tensor, transposed.
* :func:`batch_transient_analysis` — lockstep backward-Euler timesteps with
  per-row Newton masks; rows may carry different source waveforms.

All four analyses return the *scalar* solution dataclasses
(:class:`DCSolution`, :class:`ACSolution`, :class:`NoiseSolution`,
:class:`TransientSolution`), so downstream measurement code
is shared verbatim with the serial path — parity is structural, not
re-implemented.
"""

from repro.spice.batch.ac import ACSystem, batch_ac_analysis
from repro.spice.batch.dc import batch_dc_operating_point, stacked_dc_operating_point
from repro.spice.batch.model import batch_small_signal_params
from repro.spice.batch.noise import batch_noise_analysis
from repro.spice.batch.template import BatchIncompatibleError, BatchTemplate
from repro.spice.batch.transient import batch_transient_analysis

__all__ = [
    "ACSystem",
    "BatchTemplate",
    "BatchIncompatibleError",
    "batch_dc_operating_point",
    "stacked_dc_operating_point",
    "batch_ac_analysis",
    "batch_noise_analysis",
    "batch_transient_analysis",
    "batch_small_signal_params",
]
