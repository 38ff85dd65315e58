"""Dispersive detection: cavity phase shift read out by balanced homodyne.

Far off atomic resonance the atom mostly shifts the cavity line instead of
absorbing.  With the pump held on the cavity resonance (delta_c = 0), the
transmitted field acquires a phase

    phi = -U/kappa

from the self-consistent light shift U, and an ideal balanced homodyne
measurement of that phase reaches

    S_hom = 2*sqrt(N_out)*|sin(phi)|

at the shot-noise limit.  The scattering budget M = 2*Gamma*tau*rho11 is
what the scheme is meant to keep small.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import NotDispersive, SmallDetuningWarning
from .optimize import KappaTOptimum, PumpOptimum, best_pump, max_over_kappa_t
from .params import AtomParams, CavityParams, DriveParams, cooperativity
from .resonant_detection import _detected_photons, _empty_photons, _scattered
from .steady_state import _atom_response, stationary_photon_numbers

SMALL_ANGLE_MAX = 0.3  # |phi| beyond which the linearized forms degrade


@dataclass(frozen=True)
class HomodyneReport:
    """Observables of one homodyne measurement."""

    phase_shift: float
    snr: float
    n_out: float
    n_out_empty: float
    m_scattered: float
    small_angle_valid: bool


def check_dispersive(atom: AtomParams, cavity: CavityParams) -> None:
    """The pump sits on the cavity line and the atom is detuned from it."""
    tol = 1e-9 * atom.gamma
    if abs(cavity.delta_c) > tol:
        raise NotDispersive(f"requires delta_c = 0, got {cavity.delta_c:.3g} rad/s")
    if abs(atom.delta_a) <= tol:
        raise NotDispersive(
            f"requires an atomic detuning delta_a != 0, got {atom.delta_a:.3g} rad/s; "
            "the light shift and the phase vanish on resonance"
        )


def _phase_and_snr(light_shift, kappa, n_out):
    """Phase phi = -U/kappa and S_hom = 2*sqrt(N_out)*|sin(phi)|, for floats or arrays.

    phi is (0 - U)/kappa, -U/kappa for every U != 0 and +0 at U = 0.
    Floats (np.float64 too) are scored with math.sqrt and math.sin,
    without loading numpy; the tests check their bits against numpy's on
    the same values.
    """
    phi = (0.0 - light_shift) / kappa
    if isinstance(phi, float):
        sqrt, sin = math.sqrt, math.sin
    else:
        import numpy as np

        sqrt, sin = np.sqrt, np.sin
    return phi, 2.0 * sqrt(n_out) * abs(sin(phi))


def homodyne_report(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> HomodyneReport:
    """Homodyne observables at the lower root, S as _snr_hom_from_n scores it; atom detuned."""
    check_dispersive(atom, cavity)
    if abs(atom.delta_a) < 10.0 * atom.gamma:
        warnings.warn(
            "atomic detuning below 10*Gamma; absorption competes with the "
            "dispersive phase shift",
            SmallDetuningWarning,
            stacklevel=2,
        )
    n = stationary_photon_numbers(atom, cavity, drive)[0]
    n_out = _detected_photons(n, cavity, drive.tau)
    phi, snr = _phase_and_snr(_atom_response(n, cavity.g_max, atom)[2], cavity.kappa, n_out)
    return HomodyneReport(
        phase_shift=phi,
        snr=snr,
        n_out=n_out,
        n_out_empty=_detected_photons(_empty_photons(cavity, drive.j_in), cavity, drive.tau),
        m_scattered=_scattered(atom, cavity, n, drive.tau),
        small_angle_valid=abs(phi) < SMALL_ANGLE_MAX,
    )


def snr_homodyne_weak_limit(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> float:
    """Low-saturation closed form 2*sqrt(j*tau)*(kT/k)*g^2/(delta_a*kappa)."""
    return (
        2.0
        * math.sqrt(drive.j_in * drive.tau)
        * (cavity.kappa_t / cavity.kappa)
        * cavity.g_max**2
        / (abs(atom.delta_a) * cavity.kappa)
    )


def snr_homodyne_strong_limit(atom: AtomParams, drive: DriveParams) -> float:
    """High-saturation limit |delta_a|*sqrt(tau/j_in); cavity-independent."""
    return abs(atom.delta_a) * math.sqrt(drive.tau / drive.j_in)


def m_homodyne(snr: float, atom: AtomParams, cavity: CavityParams) -> float:
    """Scattered photons for a given homodyne SNR at low saturation.

    M = S_hom^2*(kappa/kappa_t)*(1/2)*C^-1, the same budget as weakly
    coupled resonant detection.
    """
    c = cooperativity(atom, cavity)
    return snr * snr * (cavity.kappa / cavity.kappa_t) * 0.5 / c


def n_out_required(snr: float, atom: AtomParams, cavity: CavityParams) -> float:
    """Detected photons needed for a given homodyne SNR at low saturation.

    N_out = (1/4)*S_hom^2*(Gamma*kappa/g^2)^2*(delta_a/Gamma)^2, a factor
    (delta_a/Gamma)^2 more light than the resonant scheme needs.
    """
    return (
        0.25
        * snr
        * snr
        * (atom.gamma * cavity.kappa / cavity.g_max**2) ** 2
        * (atom.delta_a / atom.gamma) ** 2
    )


def dispersive_saturation_pump(atom: AtomParams, cavity: CavityParams) -> float:
    """Pump rate where the empty-cavity field saturates the detuned atom."""
    d0 = atom.delta_a**2 + atom.gamma**2
    n_sat = d0 / (2.0 * cavity.g_max**2)
    return n_sat * cavity.kappa**2 / cavity.kappa_t


def _snr_hom_from_n(atom: AtomParams, cavity: CavityParams, n, tau: float):
    """homodyne_report's S for the lower-branch photon number n; floats or arrays."""
    _, _, light_shift = _atom_response(n, cavity.g_max, atom)
    return _phase_and_snr(light_shift, cavity.kappa, _detected_photons(n, cavity, tau))[1]


def max_snr_hom_over_pump(atom: AtomParams, cavity: CavityParams, tau: float) -> PumpOptimum:
    """Maximize S_hom over the pump rate (see optimize.best_pump).

    S is explicit in N, so homodyne_report(...).snr at j_in agrees with it
    to 1e-14 relative away from a fold.  On strongly coupled cavities the
    optimum can lie inside the bistable window, or at a fold of it, where
    the semiclassical model is least trustworthy (the resonant optimum of a
    g = 12 MHz, kappa_t = kappa_loss = 0.59 MHz cavity, S 616.5, is S 51 in
    the master equation).
    """
    check_dispersive(atom, cavity)
    return best_pump(_snr_hom_from_n, atom, cavity, tau)


def optimal_kappa_t_homodyne(
    atom: AtomParams,
    cavity: CavityParams,
    drive: DriveParams,
    bounds: tuple[float, float] | None = None,
) -> KappaTOptimum:
    """Mirror transmission maximizing the pump-optimized homodyne SNR.

    Same contract as the resonant optimizer: cavity supplies g_max and
    kappa_loss, kappa_t is searched, bound hits are flagged.
    """
    check_dispersive(atom, cavity)
    return max_over_kappa_t(_snr_hom_from_n, atom, cavity, drive.tau, bounds)
