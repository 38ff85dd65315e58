"""Measurement back-action on atomic motion along the cavity standing wave.

Resonant detection heats the atom through photon recoil and dipole-force
fluctuations.  At low saturation the momentum diffusion coefficient along
the cavity axis is

    D(z) = Gamma*(hbar*k)^2*eta^2*g^2 / (Gamma*kappa + g^2*cos^2(k*z))^2,

largest at field nodes for a strongly coupled cavity, where an atom still
spoils the resonance without scattering.  Averaging the detection
quantities over a flat position distribution along the axis gives S_bar,
M_bar, D_bar (the axial mean of D(z)) and the resulting momentum and
position spreads after one integration time.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import SaturationWarning
from .params import HBAR, AtomParams, CavityParams, DriveParams, cooperativity
from .resonant_detection import _detected_rate, check_resonant
from .steady_state import stationary_photon_numbers

SATURATION_MAX = 0.1  # validity edge of the low-saturation forms


@dataclass(frozen=True)
class MotionAverages:
    """Axis-averaged detection and heating figures for one transit.

    delta_p is in recoil units (hbar*k); delta_z is SI meters.
    """

    s_bar: float
    m_bar: float
    d_bar: float
    delta_p: float
    delta_z: float


def _warn_if_saturated(atom, cavity, drive):
    # every stationary root obeys N <= j_in*kappa_t/kappa^2, the empty
    # resonant cavity's photon number, so no solve is needed below that bound
    n_max = drive.j_in * cavity.kappa_t / cavity.kappa**2
    if 2.0 * cavity.g_max**2 * n_max / atom.gamma**2 <= SATURATION_MAX:
        return
    n = stationary_photon_numbers(atom, cavity, drive)[0]  # the lower branch
    sat = 2.0 * cavity.g_max**2 * n / atom.gamma**2
    if sat > SATURATION_MAX:
        warnings.warn(
            f"antinode saturation {sat:.3g} exceeds {SATURATION_MAX}; the "
            "low-saturation motion formulas are extrapolating",
            SaturationWarning,
            stacklevel=3,
        )


def spatial_averages(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> MotionAverages:
    """Detection and heating figures averaged over the standing wave.

    The average is one-dimensional, over the axial coordinate only; the
    transverse Gaussian profile is not averaged here.  Closed forms:

        S_bar = sqrt(j*tau)*(kT/k)*(1 + C/2 - (1+C)^(-1/2)), times sqrt(2)
                with an asymmetric input mirror, which doubles the counts
        M_bar = j*tau*(kT/k)*C*(1+C)^(-3/2)
        D_bar = ((hbar*k)^2/tau)*(1 + C/2)*M_bar
        delta_p = hbar*k*sqrt(2*M_bar*(1 + C/2))
        delta_z = (delta_p_SI/mass)*tau/sqrt(3)
    """
    check_resonant(atom, cavity)
    _warn_if_saturated(atom, cavity, drive)
    c = cooperativity(atom, cavity)
    jt = drive.j_in * drive.tau
    ratio = cavity.kappa_t / cavity.kappa
    doubling = math.sqrt(_detected_rate(1.0, cavity) / cavity.kappa_t)  # 1 on symmetric mirrors
    s_bar = math.sqrt(jt) * ratio * (1.0 + 0.5 * c - 1.0 / math.sqrt(1.0 + c)) * doubling
    m_bar = jt * ratio * c / (1.0 + c) ** 1.5
    hk = HBAR * atom.k
    d_bar = hk**2 / drive.tau * (1.0 + 0.5 * c) * m_bar
    delta_p = math.sqrt(2.0 * m_bar * (1.0 + 0.5 * c))
    delta_z = (delta_p * hk / atom.mass) * drive.tau / math.sqrt(3.0)
    return MotionAverages(
        s_bar=s_bar, m_bar=m_bar, d_bar=d_bar, delta_p=delta_p, delta_z=delta_z
    )
