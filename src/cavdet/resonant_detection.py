"""Resonant intensity detection: output photons, SNR, scattering budget, optima.

The detector integrates the transmitted photon flux for a time tau and
compares against the empty-cavity level; shot noise sets the denominator,

    S = (N_out,0 - N_out) / sqrt(N_out),    N_out = N * kappa_t * tau.

The scattering budget M = 2*Gamma*tau*rho11 counts spontaneous emissions
during the measurement.  Closed-form low- and high-saturation limits are
exposed alongside the full nonlinear solve; only the full solve is
authoritative between the regimes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotResonant
from .optimize import KappaTOptimum, PumpOptimum, best_pump, max_over_kappa_t
from .params import AtomParams, CavityParams, DriveParams, cooperativity
from .steady_state import StationaryState, _atom_response, stationary_photon_numbers

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


def output_photons(state: StationaryState, cavity: CavityParams, drive: DriveParams) -> float:
    """Detected photons N*kappa_t*tau, doubled for an asymmetric input mirror."""
    return _detected_photons(state.n_photons, cavity, drive.tau)


def _detected_rate(n, cavity: CavityParams):
    """Detected photon rate n*kappa_t, doubled for an asymmetric input mirror; floats or arrays."""
    rate = n * cavity.kappa_t
    return 2.0 * rate if cavity.asymmetric_input else rate


def _detected_photons(n, cavity: CavityParams, tau: float):
    """output_photons for a photon number n, a float or an array."""
    return _detected_rate(n, cavity) * tau


def _intensity_snr(n_out_empty, n_out_atom):
    """S = (N_out,0 - N_out)/sqrt(N_out), and 0 where no photon is detected.

    Takes floats or arrays; the masks multiply by one and add zero on every
    lit element, so its arithmetic is that of the plain quotient.
    """
    lit = n_out_atom > 0
    return (n_out_empty - n_out_atom) * lit / np.sqrt(n_out_atom + (n_out_atom <= 0))


def _counts(cavity: CavityParams, j, n, tau: float):
    """Detected photons (N_out,0, N_out) at pump rate j and photon number n; floats or arrays.

    A float j takes empty_cavity_state's |eta/(kappa - i*delta_c)|^2 to the
    last bit; numpy's complex division rounds unlike Python's, so an array
    j takes eta^2/(kappa^2 + delta_c^2).  At g_max = 0 N_out is N_out,0.
    """
    if isinstance(j, np.ndarray):
        n_empty = j * cavity.kappa_t / (cavity.kappa**2 + cavity.delta_c**2)
    else:
        n_empty = abs(math.sqrt(j * cavity.kappa_t) / (cavity.kappa - 1j * cavity.delta_c)) ** 2
    n_out_empty = _detected_photons(n_empty, cavity, tau)
    return n_out_empty, n_out_empty if cavity.g_max == 0 else _detected_photons(n, cavity, tau)


def _scattered(atom: AtomParams, cavity: CavityParams, n: float, tau: float) -> float:
    """Scattering budget M = 2*Gamma*tau*rho11, rho11 = g^2*N/D at photon number n and g_max."""
    g = cavity.g_max
    return 2.0 * atom.gamma * tau * (g * g * n / _atom_response(n, g, atom)[0])


def intensity_report(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> ResonantReport:
    """Intensity observables at the lower root, S as _snr_from_n scores it; no resonance check.

    Without coupling (g_max = 0) N_out is N_out,0 and S is 0 exactly.
    """
    n = stationary_photon_numbers(atom, cavity, drive)[0]
    n_out_empty, n_out_atom = _counts(cavity, drive.j_in, n, drive.tau)
    return ResonantReport(
        n_out_empty=n_out_empty,
        n_out_atom=n_out_atom,
        snr=float(_intensity_snr(n_out_empty, n_out_atom)),
        m_scattered=_scattered(atom, cavity, n, drive.tau),
        saturation=2.0 * cavity.g_max * cavity.g_max * n / atom.gamma**2,
    )


def snr_resonant(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> ResonantReport:
    """Full nonlinear SNR and scattering budget; both detunings must vanish."""
    check_resonant(atom, cavity)
    return intensity_report(atom, cavity, drive)


def snr_low_saturation(atom: AtomParams, cavity: CavityParams, drive: DriveParams) -> float:
    """Exact low-saturation closed form sqrt(j*tau)*(kT/k)*[(1+C) - 1/(1+C)]."""
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


def _snr_from_n(atom: AtomParams, cavity: CavityParams, j, n, tau: float):
    """intensity_report's S at pump rate j, lower-branch photon number n; floats or arrays."""
    return _intensity_snr(*_counts(cavity, j, n, tau))


def max_snr_over_pump(atom: AtomParams, cavity: CavityParams, tau: float) -> PumpOptimum:
    """Maximize the resonant SNR over the pump rate.

    The pump range is centered on the saturation pump, where the optimum
    sits at weak coupling (see optimize.best_pump, shared with the
    homodyne scheme); S is snr_resonant(...).snr at j_in, the same arithmetic.
    At strong coupling the SNR can still rise at the top of the range: the
    optimum returned there is the range end, and it is not flagged.
    """
    check_resonant(atom, cavity)
    return best_pump(_snr_from_n, saturation_pump, atom, cavity, tau)


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
    return max_over_kappa_t(_snr_from_n, saturation_pump, atom, cavity, drive.tau, bounds)


def fluorescence_reference(collection_fraction: float) -> float:
    """Scattered photons per detected photon for free-space imaging."""
    if not 0.0 < collection_fraction <= 1.0:
        raise ValueError("collection fraction must be in (0, 1]")
    return 1.0 / collection_fraction
