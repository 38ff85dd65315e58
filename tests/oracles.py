"""Independent references the tests compare the package against.

integrate_bloch integrates the semiclassical equations in the time domain,
the oracle of the stationary solver.  diffusion_coefficient is the paper's
momentum diffusion D(z), whose axial mean is motion.spatial_averages'
D_bar.  empty_photons is the empty cavity's photon number.  lower_branch,
record and first_detection are the element-by-element and atom-by-atom
forms of the batched solver and the block records, and best_pump, with
the scheme functions intensity_snr_from_n and homodyne_snr_from_n, is the
pump optimizer with its scan grid built per call and every S scored by
numpy: the package must match them bit for bit.  exact_intensity_snr is
the resonant S at a float photon number in rational arithmetic.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cavdet import (
    AtomParams,
    CavityParams,
    DriveParams,
    NoMaximumInBounds,
    PumpOptimum,
    StepTooLarge,
    steady_state,
)
from cavdet.motion import _warn_if_saturated
from cavdet.optimize import _N_DECADES, _N_LOW, _PER_DECADE, _POLISH_RTOL, _brent, _folds
from cavdet.params import HBAR
from cavdet.resonant_detection import _detected_photons, _detected_rate, check_resonant
from cavdet.steady_state import (
    _atom_response,
    _bracketed_root,
    _may_be_bistable,
    _residual_scaled,
    _roots_scaled,
    _scaled,
    _two_limits,
    _unconverged,
)
from cavdet.trajectory_sim import PRESENCE_WAISTS, TrajectoryRecord


def empty_photons(cavity: CavityParams, drive: DriveParams) -> float:
    """eta^2/(kappa^2 + delta_c^2), the photon number with no atom."""
    return drive.j_in * cavity.kappa_t / (cavity.kappa**2 + cavity.delta_c**2)


@dataclass(frozen=True)
class BlochTrajectory:
    """Time series from the transient integrator."""

    times: np.ndarray
    alpha: np.ndarray
    rho11: np.ndarray
    rho01: np.ndarray


def integrate_bloch(
    atom: AtomParams,
    cavity: CavityParams,
    drive: DriveParams,
    g_local: float | None = None,
    initial=None,
    t_end: float | None = None,
    dt: float | None = None,
) -> BlochTrajectory:
    """Fixed-step RK4 integration of the coupled field and atom equations.

    With all rates angular and alpha in units of sqrt(photons):

        d(alpha)/dt = (i*delta_c - kappa)*alpha - g*conj(rho01) + eta
        d(rho01)/dt = -(Gamma + i*delta_a)*rho01 + g*conj(alpha)*(1 - 2*rho11)
        d(rho11)/dt = -2*Gamma*rho11 + 2*g*Re(alpha*rho01)

    initial may be None (empty cavity, ground-state atom), an
    (alpha, rho11, rho01) triple, or a BlochTrajectory whose last sample
    seeds the run.  Only rho11 is integrated for the populations, so
    rho00 + rho11 = 1 holds by construction.
    """
    g = cavity.g_max if g_local is None else g_local
    kap, gam = cavity.kappa, atom.gamma
    da, dc = atom.delta_a, cavity.delta_c
    eta = math.sqrt(drive.j_in * cavity.kappa_t)
    max_rate = max(kap, gam, g, abs(da), abs(dc))
    if dt is None:
        dt = 0.02 / max_rate
    if dt >= 0.1 / max_rate:
        raise StepTooLarge(f"dt={dt:.3g} s exceeds 0.1/max_rate={0.1 / max_rate:.3g} s")
    if t_end is None:
        t_end = 20.0 / min(kap, gam)

    if initial is None:
        y = np.array([0.0, 0.0, 0.0], dtype=complex)
    elif isinstance(initial, BlochTrajectory):
        y = np.array([initial.alpha[-1], initial.rho01[-1], initial.rho11[-1]], dtype=complex)
    else:
        alpha0, rho11_0, rho01_0 = initial
        y = np.array([alpha0, rho01_0, rho11_0], dtype=complex)

    n_steps = max(1, math.ceil(t_end / dt))
    h = t_end / n_steps

    def deriv(y):
        al, r01, r11 = y
        d_al = (1j * dc - kap) * al - g * np.conj(r01) + eta
        d_r01 = -(gam + 1j * da) * r01 + g * np.conj(al) * (1.0 - 2.0 * r11)
        d_r11 = -2.0 * gam * r11.real + 2.0 * g * (al * r01).real
        return np.array([d_al, d_r01, d_r11], dtype=complex)

    out = np.empty((n_steps + 1, 3), dtype=complex)
    out[0] = y
    for i in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y

    times = np.linspace(0.0, t_end, n_steps + 1)
    return BlochTrajectory(
        times=times, alpha=out[:, 0], rho11=out[:, 2].real.copy(), rho01=out[:, 1]
    )


def diffusion_coefficient(
    atom: AtomParams, cavity: CavityParams, drive: DriveParams, z: float | np.ndarray
):
    """Momentum diffusion coefficient D at axial position z (kg^2 m^2/s^3).

    D(z) = Gamma*(hbar*k)^2*eta^2*g^2 / (Gamma*kappa + g^2*cos^2(k*z))^2,
    valid at low saturation with both detunings zero; warns as
    spatial_averages does when the antinode saturation exceeds the
    validity edge.
    """
    check_resonant(atom, cavity)
    _warn_if_saturated(atom, cavity, drive)
    k = atom.k
    eta2 = drive.j_in * cavity.kappa_t
    g2 = cavity.g_max**2
    denom = atom.gamma * cavity.kappa + g2 * np.cos(k * np.asarray(z)) ** 2
    d = atom.gamma * (HBAR * k) ** 2 * eta2 * g2 / denom**2
    return float(d) if np.isscalar(z) else d


def lower_branch(g2, e2, kap, da, dc, n_start=None):
    """steady_state._lower_branch with every element kept in the Newton loop to the end.

    A finished element is masked out of each update by np.where instead of
    being left out of the arrays; _TRACK_ITERS is read at each call.
    """
    cold = n_start is None
    if cold:
        n_lin, n_sat = _two_limits(g2, e2, kap, da, dc)
        n = np.minimum(np.maximum(n_lin, n_sat), e2 / (kap * kap))
    else:
        n = n_start
    d0 = da * da + 1.0
    two_g2 = 2.0 * g2
    pending = True
    for it in range(steady_state._TRACK_ITERS + 1):
        t = two_g2 * n
        d = d0 + t
        gam = g2 / d
        ka = kap + gam
        dd = dc - da * gam
        s = ka * ka + dd * dd
        f = n * s - e2
        todo = _unconverged(f, e2)
        if cold:
            todo, pending = todo | pending, todo
        if it == steady_state._TRACK_ITERS or not np.count_nonzero(todo):
            break
        fp = s - 2.0 * t * gam * (ka - da * dd) / d
        step = np.maximum(n - f / np.where(fp == 0.0, 1.0, fp), 0.5 * n)
        n = np.where(todo, step, n)
    redo = todo | _may_be_bistable(g2, e2, kap, da, dc)
    if np.count_nonzero(redo):
        n = np.array(n, dtype=float)
        g2b, e2b = np.broadcast_arrays(g2, e2)
        for i in np.flatnonzero(redo):
            n.flat[i] = _roots_scaled(float(g2b.flat[i]), float(e2b.flat[i]), kap, da, dc)[0]
    return n


def record(times, position, n_t, rho11_t, gam, cavity, sim, rng) -> TrajectoryRecord:
    """One atom's transit record, computed on its own rows alone."""
    m_scattered = float(np.trapezoid(2.0 * gam * rho11_t, times))
    rate = _detected_rate(n_t, cavity)
    increments = 0.5 * (rate[1:] + rate[:-1]) * np.diff(times)
    lam = np.concatenate(([0.0], np.cumsum(increments)))
    total = lam[-1]
    k = rng.poisson(total)
    u = np.sort(rng.uniform(0.0, total, k))
    clicks = np.interp(u, lam, times)
    if clicks.size:
        clicks = clicks[np.concatenate(([True], np.diff(clicks) > 0))]
    n_windows = int(math.floor((sim.duration - sim.window) / sim.stride + 1e-9)) + 1
    starts = np.arange(n_windows) * sim.stride
    counts = np.searchsorted(clicks, starts + sim.window, side="left") - np.searchsorted(
        clicks, starts, side="left"
    )
    return TrajectoryRecord(
        times=times,
        position=position,
        n_photons=n_t,
        click_times=clicks,
        window_times=starts,
        windowed_counts=counts,
        m_scattered=m_scattered,
    )


def first_detection(record: TrajectoryRecord, cavity: CavityParams, sim) -> float | None:
    """Earliest event of one record that starts within PRESENCE_WAISTS waists, or None."""
    below = record.windowed_counts < sim.threshold
    if not below.any():
        return None
    edges = np.diff(np.concatenate(([False], below, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    times = record.window_times
    if sim.min_dip > 0.0:
        stride = times[1] - times[0] if times.size > 1 else math.inf
        starts = starts[(ends - starts) >= max(1, math.ceil(sim.min_dip / stride - 1e-9))]
    events = times[starts]
    if events.size == 0:
        return None
    y_at = np.interp(events, record.times, record.position[:, 1])
    good = events[np.abs(y_at) <= PRESENCE_WAISTS * cavity.waist]
    return float(good[0]) if good.size else None


def intensity_snr_from_n(atom: AtomParams, cavity: CavityParams, n, tau: float):
    """The resonant S from n as the atom's share, its square root taken by numpy for floats too."""
    _, gam, u = _atom_response(n, cavity.g_max, atom)
    kap, dc = cavity.kappa, cavity.delta_c
    share = (gam * (2.0 * kap + gam) + u * (u - 2.0 * dc)) / (kap**2 + dc**2)
    return np.sqrt(_detected_photons(n, cavity, tau)) * share


def homodyne_snr_from_n(atom: AtomParams, cavity: CavityParams, n, tau: float):
    """The homodyne S from n, its square root and sine taken by numpy for floats too."""
    phi = -_atom_response(n, cavity.g_max, atom)[2] / cavity.kappa
    return 2.0 * np.sqrt(_detected_photons(n, cavity, tau)) * abs(np.sin(phi))


def exact_intensity_snr(atom: AtomParams, cavity: CavityParams, n: float, tau: float) -> float:
    """The resonant S at the float photon number n, from exact rational arithmetic.

    Every rate and n are taken as the exact values of their floats.  The
    pump that holds n is eta^2 = e2(n) = n*[(kappa + gamma)^2 + (delta_c - U)^2],
    the empty cavity holds N_empty = eta^2/(kappa^2 + delta_c^2) at that
    pump, and S = (N_out,0 - N_out)/sqrt(N_out) with N_out = n*kappa_t*tau,
    twice that for an asymmetric input mirror.  N_empty - n is checked to
    be the atom's share n*[gamma*(2*kappa + gamma) + U*(U - 2*delta_c)]/(kappa^2 + delta_c^2);
    only the last square root is rounded.
    """
    g, gam0, da = Fraction(cavity.g_max), Fraction(atom.gamma), Fraction(atom.delta_a)
    kap, dc, n = Fraction(cavity.kappa), Fraction(cavity.delta_c), Fraction(n)
    d = da * da + gam0 * gam0 + 2 * g * g * n
    gam, u = g * g * gam0 / d, g * g * da / d
    e2 = n * ((kap + gam) ** 2 + (dc - u) ** 2)
    n_empty = e2 / (kap * kap + dc * dc)
    share = n * (gam * (2 * kap + gam) + u * (u - 2 * dc)) / (kap * kap + dc * dc)
    assert n_empty - n == share
    per_photon = Fraction(cavity.kappa_t) * Fraction(tau) * (2 if cavity.asymmetric_input else 1)
    if n == 0:
        return 0.0
    # S = sqrt(per_photon/n)*share, of the sign of the share
    return math.copysign(math.sqrt(per_photon * share * share / n), share)


def best_pump(snr, atom: AtomParams, cavity: CavityParams, tau: float) -> PumpOptimum:
    """optimize.best_pump with its scan grid built at each call and j(N) from _residual_scaled."""
    if cavity.g_max == 0:
        raise NoMaximumInBounds("S is 0 at every pump rate when g_max = 0")
    g2, _, kap, da, dc = _scaled(atom, cavity, cavity.g_max, 0.0)
    n_lo = _N_LOW * (da * da + 1.0) / (2.0 * g2) if g2 > 0 else math.inf
    if not math.isfinite(n_lo * 10.0**_N_DECADES):
        raise NoMaximumInBounds(f"the photon-number range from {n_lo:.6g} is not finite")
    u = np.linspace(0.0, _N_DECADES * math.log(10.0), _N_DECADES * _PER_DECADE + 1)
    n_a = n_star = math.inf
    if folds := _folds(g2, kap, da, dc):
        n_a, n_b = folds
        e2_a = _residual_scaled(n_a, g2, 0.0, kap, da, dc)[0]
        cap = e2_a / (kap * kap)
        n_star = _bracketed_root(n_b, cap, cap, g2, e2_a, kap, da, dc)
    n = n_lo * np.exp(u)
    s = snr(atom, cavity, n, tau)
    i = int(np.argmax(np.where(((n <= n_a) | (n >= n_star)) & (s == s), s, -np.inf)))
    a, b = float(u[max(i - 1, 0)]), float(u[min(i + 1, u.size - 1)])
    if n[i] <= n_a:
        b = min(b, math.log(n_a / n_lo))
    else:
        a = max(a, math.log(n_star / n_lo))

    def polish(t):
        return float(snr(atom, cavity, n_lo * math.exp(t), tau))

    start = float(u[i])
    s_start = polish(start)
    if i in (0, u.size - 1):
        inside = _POLISH_RTOL * (abs(a) + abs(b))
        start = a + inside if i == 0 else b - inside
        s_end, s_start = s_start, polish(start)
        if not s_start >= s_end:
            end = "high" if i else "low"
            raise NoMaximumInBounds(f"S rises towards the {end} end of the photon-number range")
    t, s_best = _brent(polish, a, b, start, s_start, _POLISH_RTOL)
    e2 = _residual_scaled(n_lo * math.exp(t), g2, 0.0, kap, da, dc)[0]
    return PumpOptimum(e2 * (atom.gamma**2 / cavity.kappa_t), s_best)
