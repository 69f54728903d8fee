"""A from-scratch analog circuit simulator (the paper's Spectre/HSPICE substitute).

The GCN-RL paper evaluates candidate transistor sizes with commercial SPICE
simulators.  Those are unavailable here, so this package implements a compact
but real modified-nodal-analysis (MNA) simulator:

* **Elements** — resistors, capacitors, independent voltage/current sources
  (DC, AC and piece-wise-linear waveforms), voltage-controlled sources and
  square-law MOSFETs driven by the :mod:`repro.technology` model cards.
* **DC operating point** — Newton–Raphson with per-iteration voltage-step
  limiting, gmin stepping and source stepping fall-backs.
* **AC analysis** — complex small-signal MNA around the DC operating point.
* **Noise analysis** — adjoint-network output-noise computation with resistor
  thermal noise and MOSFET thermal + flicker noise.
* **Transient analysis** — backward-Euler integration with a Newton solve per
  timestep (used for LDO settling-time measurements).
* **Batch engine** (:mod:`repro.spice.batch`) — vectorized MNA over whole
  populations of one topology: batched-Newton DC (including a scalar-exact
  variant, bit-identical to the DC solver above, that the LDO uses), one
  stacked complex solve for the full (designs × frequencies) AC grid,
  batched adjoint noise and lockstep batched transients.
* **Measurements** — gain, -3dB bandwidth, GBW, phase margin, peaking, PSRR,
  settling time, load/line regulation and integrated noise helpers.

The public API mirrors what a user of a scripting interface to ngspice would
see, so the sizing environment and all optimizers are agnostic to the fact
that the "simulator" is pure Python.
"""

from repro.spice.circuit import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Element,
    MOSFET,
    Resistor,
    VCVS,
    VoltageSource,
)
from repro.spice.dc import DCSolution, dc_operating_point
from repro.spice.ac import ACSolution, ac_analysis
from repro.spice.noise import NoiseSolution, noise_analysis
from repro.spice.transient import TransientSolution, transient_analysis
from repro.spice import measurements

__all__ = [
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "MOSFET",
    "DCSolution",
    "dc_operating_point",
    "ACSolution",
    "ac_analysis",
    "NoiseSolution",
    "noise_analysis",
    "TransientSolution",
    "transient_analysis",
    "measurements",
]
