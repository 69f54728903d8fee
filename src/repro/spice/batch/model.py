"""Vectorized square-law MOSFET model (array-in, array-out).

Mirrors :func:`repro.technology.mosfet_model.small_signal_params` over a
batch of devices that share one model card: every formula, clamp and region
boundary is kept identical, in the same operation order, with ``np.where``
selecting between the cutoff / triode / saturation expressions.  The only
kernel that differs from the scalar model is ``exp``: numpy's vectorized
``exp`` and libm's ``math.exp`` disagree in the last ulp on a few percent
of arguments (``sqrt`` is correctly rounded in both).  The sub-threshold
expressions therefore go through numpy's ``exp`` by default, and through
``math.exp`` with :func:`batch_dc_params`'s ``libm_exp=True`` — then every
output is bit-identical to the scalar model (the scalar-exact stacked DC
relies on it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence, Tuple

import numpy as np

from repro.technology.mosfet_model import BOLTZMANN_Q, MOSFETModelCard


@dataclass
class BatchOperatingPoint:
    """Small-signal parameters of one template device across a batch.

    Every attribute is an array of shape ``(batch,)``; ``in_cutoff`` marks
    the designs whose device is below threshold.
    """

    ids: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    gmb: np.ndarray
    cgs: np.ndarray
    cgd: np.ndarray
    cdb: np.ndarray
    in_cutoff: np.ndarray


#: Card attributes the batched model and the MOSFET bias read.
_CARD_FIELDS = (
    "polarity", "vth0", "gamma", "phi", "lambda_", "u0", "uc", "tox", "cox", "vsat", "cgso", "cj"
)


def stack_cards(cards: Sequence[MOSFETModelCard]) -> SimpleNamespace:
    """The parameters of ``cards`` as ``(M,)`` arrays, usable as one card.

    :func:`batch_dc_params` and :func:`batch_small_signal_params` only
    combine card parameters elementwise, so with ``(K, M)`` biases they
    evaluate devices of different cards (NMOS and PMOS) in one call, each
    with exactly the operations its own card would get.
    """
    return SimpleNamespace(
        **{
            name: np.asarray([getattr(card, name) for card in cards], dtype=float)
            for name in _CARD_FIELDS
        }
    )


def _libm_exp(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp`` of a 1-D array (the scalar model's kernel)."""
    return np.fromiter(map(math.exp, values.tolist()), dtype=float, count=values.size)


def batch_dc_params(
    card: MOSFETModelCard,
    width: np.ndarray,
    length: np.ndarray,
    vgs: np.ndarray,
    vds: np.ndarray,
    vsb: np.ndarray,
    libm_exp: bool = False,
) -> Tuple[np.ndarray, ...]:
    """Drain current and conductances: the DC part of the square-law model.

    Args:
        card: Shared model card (all devices in a batch use one technology),
            or a :func:`stack_cards` namespace with one card per column.
        width: Effective gate widths (width * multiplier) [m].
        length: Gate lengths [m].
        vgs: Polarity-normalised gate-source voltages [V].
        vds: Polarity-normalised drain-source voltages [V].
        vsb: Polarity-normalised source-bulk voltages [V].
        libm_exp: Take the exponentials of cutoff devices from
            ``math.exp``, making every output bit-identical to the scalar
            model (one Python call per cutoff device).

    Returns:
        ``(ids, gm, gds, in_cutoff, in_sat)``, all of the broadcast shape.
    """
    vth = np.where(
        vsb > 0,
        card.vth0 + card.gamma * (np.sqrt(card.phi + vsb) - np.sqrt(card.phi)),
        card.vth0,
    )
    vov = vgs - vth
    lam = card.lambda_ / (np.maximum(length, 1e-9) * 1e6)
    ueff = card.u0 / (1.0 + card.uc * np.maximum(vov, 0.0) / card.tox)
    beta = ueff * card.cox * width / length
    in_cutoff = vov <= 0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # --- cutoff: smooth sub-threshold leakage ------------------------------
        vds_pos = np.maximum(vds, 0.0)
        if libm_exp:
            exp_vov = np.zeros_like(vov)
            exp_vds = np.zeros_like(vov)
            exp_vov[in_cutoff] = _libm_exp(vov[in_cutoff] / (1.5 * BOLTZMANN_Q))
            exp_vds[in_cutoff] = _libm_exp(-vds_pos[in_cutoff] / BOLTZMANN_Q)
        else:
            exp_vov = np.exp(vov / (1.5 * BOLTZMANN_Q))
            exp_vds = np.exp(-vds_pos / BOLTZMANN_Q)
        i_leak = beta * BOLTZMANN_Q**2 * exp_vov
        ids_cut = i_leak * (1.0 - exp_vds)
        gm_cut = i_leak / (1.5 * BOLTZMANN_Q)
        gds_cut = np.maximum(i_leak * exp_vds / BOLTZMANN_Q, 1e-12)

        # --- conducting: velocity-saturation limited square law ----------------
        vdsat_vel = card.vsat * length / np.maximum(ueff, 1e-6)
        vdsat = np.minimum(vov, vdsat_vel)
        one_lam = 1.0 + lam * vds

        # Shared prefixes are the exact subexpressions of the scalar model.
        sat = 0.5 * beta * vdsat * (2 * vov - vdsat)
        ids_sat = sat * one_lam
        gm_sat = beta * vdsat * one_lam
        gds_sat = sat * lam

        tri = beta * (vov * vds - 0.5 * vds * vds)
        ids_tri = tri * one_lam
        gm_tri = beta * vds * one_lam
        gds_tri = beta * (vov - vds) * one_lam + tri * lam

    in_sat = vds >= vdsat
    ids = np.where(in_cutoff, ids_cut, np.where(in_sat, ids_sat, ids_tri))
    gm = np.where(in_cutoff, gm_cut, np.where(in_sat, gm_sat, gm_tri))
    gds = np.where(
        in_cutoff, gds_cut, np.maximum(np.where(in_sat, gds_sat, gds_tri), 1e-12)
    )
    return ids, gm, gds, in_cutoff, in_sat


def batch_small_signal_params(
    card: MOSFETModelCard,
    width: np.ndarray,
    length: np.ndarray,
    vgs: np.ndarray,
    vds: np.ndarray,
    vsb: np.ndarray,
) -> BatchOperatingPoint:
    """Evaluate the square-law model for a batch of devices at once.

    Args:
        card: Shared model card (all devices in a batch use one technology).
        width: Effective gate widths (width * multiplier) [m], shape ``(B,)``.
        length: Gate lengths [m], shape ``(B,)``.
        vgs: Polarity-normalised gate-source voltages [V], shape ``(B,)``.
        vds: Polarity-normalised drain-source voltages [V], shape ``(B,)``.
        vsb: Polarity-normalised source-bulk voltages [V], shape ``(B,)``.

    Returns:
        A :class:`BatchOperatingPoint` of ``(B,)`` arrays.
    """
    width = np.asarray(width, dtype=float)
    length = np.asarray(length, dtype=float)
    ids, gm, gds, in_cutoff, in_sat = batch_dc_params(
        card,
        width,
        length,
        np.asarray(vgs, dtype=float),
        np.asarray(vds, dtype=float),
        np.asarray(vsb, dtype=float),
    )

    cgs_ov = card.cgso * width
    cgd_ov = card.cgso * width
    c_channel = card.cox * width * length
    cdb = card.cj * width * length
    gmb = 0.2 * gm
    cgs = np.where(
        in_cutoff,
        cgs_ov,
        np.where(in_sat, cgs_ov + (2.0 / 3.0) * c_channel, cgs_ov + 0.5 * c_channel),
    )
    cgd = np.where(
        in_cutoff, cgd_ov, np.where(in_sat, cgd_ov, cgd_ov + 0.5 * c_channel)
    )

    return BatchOperatingPoint(
        ids=ids,
        gm=gm,
        gds=gds,
        gmb=gmb,
        cgs=cgs,
        cgd=cgd,
        cdb=cdb,
        in_cutoff=in_cutoff,
    )
