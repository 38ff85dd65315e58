"""Resonant intensity detection: output photons, SNR, scattering budget, optima.

The detector integrates the transmitted photon flux for a time tau and
compares against the empty-cavity level; shot noise sets the denominator,

    S = (N_out,0 - N_out) / sqrt(N_out),    N_out = N * kappa_t * tau.

The difference is the atom's explicit share of the damping gamma and the
light shift U at N,

    N_out,0 - N_out = N_out*[gamma*(2*kappa + gamma) + U*(U - 2*delta_c)]/(kappa^2 + delta_c^2),

so S is a function of N alone: it keeps its digits at weak coupling and is
0 at g_max = 0.

The scattering budget M = 2*Gamma*tau*rho11 counts spontaneous emissions
during the measurement.  Closed-form low- and high-saturation limits are
exposed alongside the full nonlinear solve; only the full solve is
authoritative between the regimes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotResonant
from .optimize import KappaTOptimum, PumpOptimum, best_pump, max_over_kappa_t
from .params import AtomParams, CavityParams, DriveParams, cooperativity
from .steady_state import _atom_response, stationary_photon_numbers

# cooperativity bands for tagging which closed-form branch applies
WEAK_COUPLING_MAX = 0.2
STRONG_COUPLING_MIN = 5.0


@dataclass(frozen=True)
class ResonantReport:
    """Observables of one intensity measurement."""

    n_out_empty: float
    n_out_atom: float
    snr: float
    m_scattered: float
    saturation: float


@dataclass(frozen=True)
class AsymptoticSnr:
    """Closed-form limit value with its coupling-regime tag.

    blended is set in the crossover band where neither branch of the
    piecewise form is trustworthy.
    """

    value: float
    regime: str
    blended: bool


def classify_coupling(c: float) -> tuple[str, bool]:
    """Regime tag for a cooperativity value plus a crossover (blend) flag."""
    if c < WEAK_COUPLING_MAX:
        return "weak", False
    if c > STRONG_COUPLING_MIN:
        return "strong", False
    return "intermediate", True


def check_resonant(atom: AtomParams, cavity: CavityParams) -> None:
    tol = 1e-9 * atom.gamma
    if abs(atom.delta_a) > tol or abs(cavity.delta_c) > tol:
        raise NotResonant(
            f"requires delta_a = delta_c = 0, got delta_a={atom.delta_a:.3g}, "
            f"delta_c={cavity.delta_c:.3g} rad/s"
        )


def _detected_rate(n, cavity: CavityParams):
    """Detected photon rate n*kappa_t, doubled for an asymmetric input mirror; floats or arrays."""
    rate = n * cavity.kappa_t
    return 2.0 * rate if cavity.asymmetric_input else rate


def _detected_photons(n, cavity: CavityParams, tau: float):
    """Detected photons n*kappa_t*tau, doubled for an asymmetric input mirror; floats or arrays."""
    return _detected_rate(n, cavity) * tau


def _empty_photons(cavity: CavityParams, j):
    """Empty-cavity photon number eta^2/(kappa^2 + delta_c^2) at pump rate j; floats or arrays."""
    return j * cavity.kappa_t / (cavity.kappa**2 + cavity.delta_c**2)


def _scattered(atom: AtomParams, cavity: CavityParams, n: float, tau: float) -> float:
    """Scattering budget M = 2*Gamma*tau*rho11, rho11 = g^2*N/D at photon number n and g_max."""
    g = cavity.g_max
    return 2.0 * atom.gamma * tau * (g * g * n / _atom_response(n, g, atom)[0])


def intensity_report(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> ResonantReport:
    """Intensity observables at the lower root, S as _snr_from_n scores it; no resonance check.

    Without coupling (g_max = 0) the atom's share, and so S, is 0 exactly.
    """
    n = stationary_photon_numbers(atom, cavity, drive)[0]
    return ResonantReport(
        n_out_empty=_detected_photons(_empty_photons(cavity, drive.j_in), cavity, drive.tau),
        n_out_atom=_detected_photons(n, cavity, drive.tau),
        snr=_snr_from_n(atom, cavity, n, drive.tau),
        m_scattered=_scattered(atom, cavity, n, drive.tau),
        saturation=2.0 * cavity.g_max * cavity.g_max * n / atom.gamma**2,
    )


def snr_resonant(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> ResonantReport:
    """Full nonlinear SNR and scattering budget; both detunings must vanish."""
    check_resonant(atom, cavity)
    return intensity_report(atom, cavity, drive)


def snr_low_saturation(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> float:
    """Exact low-saturation closed form sqrt(j*tau)*(kT/k)*[(1+C) - 1/(1+C)].

    Assumes the symmetric-output convention (no asymmetric_input doubling).
    """
    c = cooperativity(atom, cavity)
    return (
        math.sqrt(drive.j_in * drive.tau)
        * (cavity.kappa_t / cavity.kappa)
        * ((1.0 + c) - 1.0 / (1.0 + c))
    )


def snr_weak_limit(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> AsymptoticSnr:
    """Piecewise low-saturation limit: sqrt(j*tau)*C*(kT/k) times 2 (C<1) or 1 (C>=1).

    Assumes the symmetric-output convention (no asymmetric_input doubling).
    Caller is responsible for actually being at low saturation.
    """
    c = cooperativity(atom, cavity)
    regime, blended = classify_coupling(c)
    factor = 2.0 if c < 1.0 else 1.0
    value = factor * math.sqrt(drive.j_in * drive.tau) * c * (cavity.kappa_t / cavity.kappa)
    return AsymptoticSnr(value=value, regime=regime, blended=blended)


def snr_strong_limit(atom: AtomParams, drive: DriveParams) -> float:
    """High-saturation limit Gamma*sqrt(tau/j_in); no cavity parameter enters."""
    return atom.gamma * math.sqrt(drive.tau / drive.j_in)


def m_weak_limit(snr: float, atom: AtomParams, cavity: CavityParams) -> float:
    """Scattered photons needed for a given low-saturation SNR.

    M = S^2*(kappa/kappa_t) times (1/2)*C^-1 for C<1 or 2*C^-3 for C>=1;
    the branch switches with the piecewise SNR form.
    """
    c = cooperativity(atom, cavity)
    factor = 0.5 / c if c < 1.0 else 2.0 / c**3
    return snr * snr * (cavity.kappa / cavity.kappa_t) * factor


def saturation_pump(atom: AtomParams, cavity: CavityParams) -> float:
    """Pump rate where the empty-cavity field saturates the atom at resonance.

    Solves 2*g^2*N_empty = Gamma^2 with N_empty = j_in*kappa_t/kappa^2.
    """
    return atom.gamma**2 * cavity.kappa**2 / (2.0 * cavity.g_max**2 * cavity.kappa_t)


def _snr_from_n(atom: AtomParams, cavity: CavityParams, n, tau: float):
    """intensity_report's S at lower-branch photon number n; floats or arrays.

    N_out,0 - N_out is the atom's share (see the module docstring): the
    pump that holds n photons is eta^2 = n*[(kappa + gamma)^2 + (delta_c - U)^2],
    gamma and U at n and g_max, and the empty cavity holds
    eta^2/(kappa^2 + delta_c^2).  A float n (np.float64 too) is scored
    with math.sqrt, which rounds as np.sqrt does, without loading numpy.
    """
    _, gamma, u = _atom_response(n, cavity.g_max, atom)
    kappa, delta_c = cavity.kappa, cavity.delta_c
    share = (gamma * (2.0 * kappa + gamma) + u * (u - 2.0 * delta_c)) / (kappa**2 + delta_c**2)
    n_out = _detected_photons(n, cavity, tau)
    if isinstance(n_out, float):
        return math.sqrt(n_out) * share
    import numpy as np

    return np.sqrt(n_out) * share


def max_snr_over_pump(atom: AtomParams, cavity: CavityParams, tau: float) -> PumpOptimum:
    """Maximize the resonant SNR over the pump rate (see optimize.best_pump).

    S is explicit in N, so snr_resonant(...).snr at j_in, which solves
    that N again, agrees with it to 1e-14 relative away from a fold.  On
    strongly coupled cavities the optimum lies inside the bistable window,
    where the semiclassical model is least trustworthy: at 338 times the
    saturation pump of a g = 12 MHz, kappa_t = kappa_loss = 0.59 MHz
    cavity, the optimum's S 616.5 is S 51 in the master equation.
    """
    check_resonant(atom, cavity)
    return best_pump(_snr_from_n, atom, cavity, tau)


def optimal_kappa_t(
    atom: AtomParams,
    cavity: CavityParams,
    drive: DriveParams,
    bounds: tuple[float, float] | None = None,
) -> KappaTOptimum:
    """Mirror transmission maximizing the pump-optimized SNR.

    cavity supplies g_max and kappa_loss; its kappa_t is searched over
    (see optimize.max_over_kappa_t for the bounds and the bound flags).
    """
    check_resonant(atom, cavity)
    return max_over_kappa_t(_snr_from_n, atom, cavity, drive.tau, bounds)


def fluorescence_reference(collection_fraction: float) -> float:
    """Scattered photons per detected photon for free-space imaging."""
    if not 0.0 < collection_fraction <= 1.0:
        raise ValueError("collection fraction must be in (0, 1]")
    return 1.0 / collection_fraction
