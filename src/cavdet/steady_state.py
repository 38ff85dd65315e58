"""Stationary solutions of the driven atom-cavity model, plus a reference integrator.

A single pumped cavity mode couples to one two-level atom.  With all rates
angular and alpha in units of sqrt(photons), the semiclassical equations are

    d(alpha)/dt = (i*delta_c - kappa)*alpha - g*conj(rho01) + eta
    d(rho01)/dt = -(Gamma + i*delta_a)*rho01 + g*conj(alpha)*(1 - 2*rho11)
    d(rho11)/dt = -2*Gamma*rho11 + 2*g*Re(alpha*rho01)

Eliminating the atom in steady state gives the induced damping and shift

    gamma(N) = g^2*Gamma/D,   U(N) = g^2*delta_a/D,
    D = delta_a^2 + Gamma^2 + 2*g^2*N,

and the photon number N = |alpha|^2 solves the implicit equation

    N * [(kappa + gamma(N))^2 + (delta_c - U(N))^2] = eta^2,

which is a cubic polynomial in N.  Up to three non-negative roots exist in
detuned or strongly driven regimes (optical bistability); the state returned
by solve_stationary is the branch continuously connected to N=0 under an
adiabatic pump ramp, which is always the smallest root.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedRootsWarning, NoPhysicalRoot, StepTooLarge
from .params import AtomParams, CavityParams, DriveParams, pump_amplitude

_MERGE_RTOL = 1e-9  # roots closer than this (relative) are reported as one
# a cubic root below this fraction of the shift -a/3 has lost most of its
# digits to cancellation and is recomputed from the product of the roots
_CANCEL_RTOL = 1e-8


@dataclass(frozen=True)
class StationaryState:
    """Self-consistent stationary state on one branch.

    all_roots holds every distinct non-negative photon-number root in
    ascending order; branch_count is its length.  gamma_eff and light_shift
    are the atom-induced damping gamma(N) and detuning U(N) at the returned
    root.
    """

    alpha: complex
    n_photons: float
    rho11: float
    rho01: complex
    gamma_eff: float
    light_shift: float
    branch_count: int
    all_roots: tuple[float, ...]


@dataclass(frozen=True)
class BlochTrajectory:
    """Time series from the transient integrator."""

    times: np.ndarray
    alpha: np.ndarray
    rho11: np.ndarray
    rho01: np.ndarray


# ---------------------------------------------------------------------------
# cubic root machinery, in units of Gamma for float conditioning
# ---------------------------------------------------------------------------

def _cubic_coeffs(g2, e2, kap, da, dc):
    """Coefficients (c3, c2, c1, c0) of the stationary cubic in N.

    Derived by multiplying the implicit equation through by D^2; inputs are
    Gamma-scaled: g2 = (g/Gamma)^2, e2 = eta^2/Gamma^2, etc.  Works on
    scalars and arrays alike.
    """
    d0 = da * da + 1.0
    b = 2.0 * g2
    a1 = kap * d0 + g2
    b1 = kap * b
    a2 = dc * d0 - g2 * da
    b2 = dc * b
    c3 = b1 * b1 + b2 * b2
    c2 = 2.0 * (a1 * b1 + a2 * b2) - e2 * b * b
    c1 = a1 * a1 + a2 * a2 - 2.0 * e2 * d0 * b
    c0 = -e2 * d0 * d0
    return c3, c2, c1, c0


def _residual_scaled(n, g2, e2, kap, da, dc):
    """Scaled residual f(N) and derivative f'(N) of the implicit equation."""
    d = da * da + 1.0 + 2.0 * g2 * n
    gam = g2 / d
    u = g2 * da / d
    ka = kap + gam
    dd = dc - u
    f = n * (ka * ka + dd * dd) - e2
    dgam = -2.0 * g2 * gam / d
    du = -2.0 * g2 * u / d
    fp = ka * ka + dd * dd + n * (2.0 * ka * dgam - 2.0 * dd * du)
    return f, fp


def _newton_polish(n, g2, e2, kap, da, dc, iters=60):
    """Newton refinement of one root toward 1e-12 relative residual; _roots_scaled checks it."""
    scale = max(e2, 1e-300)
    for _ in range(iters):
        f, fp = _residual_scaled(n, g2, e2, kap, da, dc)
        if fp == 0.0:
            break
        step = f / fp
        n_new = n - step
        if n_new < 0.0:
            n_new = 0.5 * n
        if abs(f) <= 1e-12 * scale and abs(step) <= 1e-13 * max(abs(n), 1e-300):
            n = n_new
            break
        n = n_new
    return max(n, 0.0)


def _depressed_real_roots(a, b, c):
    """Real roots of t^3 + a t^2 + b t + c, ascending."""
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    # rescale roots to O(1); otherwise the discriminant overflows when the
    # leading cubic coefficient is many orders below the others
    scale = max(math.sqrt(abs(p)), abs(q) ** (1.0 / 3.0))
    if scale == 0.0:
        return [shift]
    p /= scale * scale
    q /= scale * scale * scale
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        # evaluate the large-magnitude cube root first to avoid cancellation
        big = -q / 2.0 - math.copysign(s, q)
        t1 = float(np.cbrt(big))
        if t1 != 0.0:
            t1 = t1 - p / (3.0 * t1)
        r = t1 * scale + shift
        if abs(r) < _CANCEL_RTOL * abs(shift):
            # r was lost to cancellation against the shift; take it from
            # the deflated quadratic t^2 + (a + r)*t + q1 instead, r = -c/q1
            q1 = b + r * (a + r)
            if q1 != 0.0:
                r = -c / q1
        return [r]
    if disc == 0.0:
        if p == 0.0:
            return [shift]
        single = 3.0 * q / p * scale + shift
        double = -1.5 * q / p * scale + shift
        if abs(single) < _CANCEL_RTOL * abs(shift) and double != 0.0:
            # likewise, from single*double^2 = -c
            single = -c / (double * double)
        return sorted({single, double})
    m = 2.0 * math.sqrt(-p / 3.0)
    cos_phi = 3.0 * q / (p * m)
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    roots = [m * math.cos((phi - 2.0 * math.pi * k) / 3.0) * scale + shift for k in range(3)]
    roots.sort(key=abs)
    if abs(roots[0]) < _CANCEL_RTOL * abs(shift) and roots[1] * roots[2] != 0.0:
        # likewise, from r0*r1*r2 = -c
        roots[0] = -c / (roots[1] * roots[2])
    return sorted(roots)


def _roots_scaled(g2, e2, kap, da, dc):
    """Distinct non-negative roots of the scaled stationary equation, ascending."""
    if e2 == 0.0:
        return [0.0]
    if g2 == 0.0:
        return [e2 / (kap * kap + dc * dc)]
    d0 = da * da + 1.0
    # every root obeys N <= e2/kap^2, so a tiny coupling cannot saturate the
    # atom and the equation is effectively linear; the cubic would be singular
    if 2.0 * g2 * (e2 / (kap * kap)) < 1e-10 * d0:
        gam0 = g2 / d0
        u0 = g2 * da / d0
        starts = [e2 / ((kap + gam0) ** 2 + (dc - u0) ** 2)]
    else:
        c3, c2, c1, c0 = _cubic_coeffs(g2, e2, kap, da, dc)
        raw = _depressed_real_roots(c2 / c3, c1 / c3, c0 / c3)
        starts = [max(r, 0.0) for r in raw if r > -1e-12]
    polished = sorted(_newton_polish(r, g2, e2, kap, da, dc) for r in starts)
    if not polished:
        raise NoPhysicalRoot("stationary cubic produced no non-negative root")
    for n in polished:
        if _unconverged(_residual_scaled(n, g2, e2, kap, da, dc)[0], e2):
            raise NoPhysicalRoot(f"Newton polish ended at N={n:.6g}, not a stationary root")
    roots = [polished[0]]
    for r in polished[1:]:
        if r - roots[-1] <= _MERGE_RTOL * max(r, 1e-300):
            warnings.warn(
                "stationary roots separated by less than 1e-9 relative; "
                "reporting them as a single branch",
                IllConditionedRootsWarning,
                stacklevel=3,
            )
            continue
        roots.append(r)
    return roots


_ROOT_RTOL = 1e-12  # N is accepted as a root when |f(N)| <= _ROOT_RTOL * e2
_TRACK_ITERS = 20  # Newton iterations before an element falls back


def _unconverged(f, e2):
    """True where a residual f fails the root test |f| <= _ROOT_RTOL * e2; arrays or floats."""
    ok = abs(f) <= _ROOT_RTOL * e2
    return ~ok if isinstance(ok, np.ndarray) else not ok


def _may_be_bistable(g2, e2, kap, da, dc):
    """True where the stationary cubic may have more than one positive root.

    For g2 > 0 and e2 > 0, c3 > 0 and c0 < 0, so Descartes' rule of signs
    allows three positive roots only when c2 < 0 < c1.  The coefficients of
    _cubic_coeffs factor as c2 = 4*g2*(a + g2*(b - e2)) and
    c1 = d0*(g2*(g2 + 2*(b - 2*e2)) + a), with a = d0*(kap^2 + dc^2) and
    b = kap - dc*da; these forms do not underflow at tiny g2.  At g2 = 0
    or e2 = 0 the root is unique.  g2 and e2 broadcast against each other.
    """
    d0 = da * da + 1.0
    a = d0 * (kap * kap + dc * dc)
    b = kap - dc * da
    if not isinstance(e2, np.ndarray) and b >= e2:  # then c2 > 0 for every g2 >= 0
        return np.zeros(np.shape(g2), dtype=bool)
    return (a + g2 * (b - e2) < 0.0) & (g2 * (g2 + 2.0 * (b - 2.0 * e2)) + a > 0.0)


def _closed_form_lower(g2, e2, kap, da, dc):
    """Vectorized closed-form smallest root of the cubic, clipped at 0; a Newton start.

    g2 and e2 broadcast against each other.  It is not a checked root:
    cancellation can cost it all its digits (Kahan 2004; Blinn 2006-07).
    """
    g2, e2 = np.broadcast_arrays(np.asarray(g2, dtype=float), e2)
    n = np.empty(g2.shape)
    d0 = da * da + 1.0
    # same linear-regime split as the scalar path (also covers g2 == 0)
    lin = 2.0 * g2 * (e2 / (kap * kap)) < 1e-10 * d0
    gam0 = g2[lin] / d0
    u0 = g2[lin] * da / d0
    n[lin] = e2[lin] / ((kap + gam0) ** 2 + (dc - u0) ** 2)
    c3, c2, c1, c0 = _cubic_coeffs(g2[~lin], e2[~lin], kap, da, dc)
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    scale = np.maximum(np.sqrt(np.abs(p)), np.cbrt(np.abs(q)))
    scale = np.where(scale == 0.0, 1.0, scale)
    p = p / (scale * scale)
    q = q / (scale * scale * scale)
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    three = disc < 0.0
    t = np.empty_like(q)
    pm, qm = p[three], q[three]
    m = 2.0 * np.sqrt(-pm / 3.0)
    phi = np.arccos(np.clip(3.0 * qm / (pm * m), -1.0, 1.0))
    # of the three real roots the smallest is at angle (phi - 4*pi)/3
    t[three] = m * np.cos((phi - 4.0 * math.pi) / 3.0)
    ps, qs = p[~three], q[~three]
    s = np.sqrt(np.maximum(disc[~three], 0.0))
    # the large-magnitude cube root first, to avoid cancellation
    t1 = np.cbrt(-qs / 2.0 - np.copysign(s, qs))
    nz = t1 != 0.0
    t[~three] = np.where(nz, t1 - ps / (3.0 * np.where(nz, t1, 1.0)), 0.0)
    n[~lin] = np.maximum(t * scale + shift, 0.0)
    return n


def _lower_branch(g2, e2, kap, da, dc, n_start=None):
    """Lower-branch photon numbers over broadcast arrays of couplings g2 and pumps e2.

    Newton starts from n_start (a stepper passes the previous step's
    roots), or without one from _closed_form_lower.  An element stops
    updating once |f| <= _ROOT_RTOL * e2, so its result never depends on
    the other elements.  From a cold start an element takes one more
    Newton step after it first passes, which brings it to the scalar
    solver's root within rounding, and must pass again.  An element that
    fails the test after _TRACK_ITERS iterations, or that _may_be_bistable
    flags (a converged root need not be the lowest there), is the scalar
    solver's lower branch _roots_scaled(...)[0], which raises
    NoPhysicalRoot where it finds no root.  So every element passes the
    root test.
    """
    cold = n_start is None
    n = _closed_form_lower(g2, e2, kap, da, dc) if cold else n_start
    d0 = da * da + 1.0
    two_g2 = 2.0 * g2
    pending = True  # from a cold start, an element steps once more after it passes
    for it in range(_TRACK_ITERS + 1):
        # f and f' of _residual_scaled, with the per-call factors taken out
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
        if it == _TRACK_ITERS or not np.count_nonzero(todo):
            break
        fp = s - 2.0 * t * gam * (ka - da * dd) / d
        # a Newton step may at most halve N, which keeps it positive
        step = np.maximum(n - f / np.where(fp == 0.0, 1.0, fp), 0.5 * n)
        n = np.where(todo, step, n)
    redo = todo | _may_be_bistable(g2, e2, kap, da, dc)
    if np.count_nonzero(redo):
        n = np.array(n, dtype=float)
        g2b, e2b = np.broadcast_arrays(g2, e2)
        for i in np.flatnonzero(redo):
            n.flat[i] = _roots_scaled(g2b.flat[i], e2b.flat[i], kap, da, dc)[0]
    return n


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def stationary_photon_numbers(
    atom: AtomParams, cavity: CavityParams, drive: DriveParams, g_local: float | None = None
) -> tuple[float, ...]:
    """All distinct non-negative stationary photon numbers, ascending."""
    g = cavity.g_max if g_local is None else g_local
    gam = atom.gamma
    eta2 = drive.j_in * cavity.kappa_t
    roots = _roots_scaled(
        (g / gam) ** 2, eta2 / gam**2, cavity.kappa / gam, atom.delta_a / gam, cavity.delta_c / gam
    )
    return tuple(roots)


def _atom_response(n, g, atom: AtomParams):
    """Saturation denominator D, damping gamma(N) and light shift U(N) at photon number N.

    D = delta_a^2 + Gamma^2 + 2*g^2*N; n may be a float or an array.
    """
    d = atom.delta_a**2 + atom.gamma**2 + 2.0 * g * g * n
    return d, g * g * atom.gamma / d, g * g * atom.delta_a / d


def _state_from_n(n, g, atom, cavity, drive, branch_count, all_roots):
    gam = atom.gamma
    d, gamma_eff, light_shift = _atom_response(n, g, atom)
    eta = pump_amplitude(drive, cavity)
    denom = (cavity.kappa + gamma_eff) - 1j * (cavity.delta_c - light_shift)
    alpha = eta / denom
    rho11 = g * g * n / d
    rho01 = g * np.conj(alpha) * (1.0 - 2.0 * rho11) / (gam + 1j * atom.delta_a)
    return StationaryState(
        alpha=complex(alpha),
        n_photons=float(n),
        rho11=float(rho11),
        rho01=complex(rho01),
        gamma_eff=float(gamma_eff),
        light_shift=float(light_shift),
        branch_count=branch_count,
        all_roots=all_roots,
    )


def solve_stationary(
    atom: AtomParams, cavity: CavityParams, drive: DriveParams, g_local: float | None = None
) -> StationaryState:
    """Stationary state on the branch connected to N=0 under a pump ramp.

    g_local overrides cavity.g_max for atoms away from the antinode; mode
    geometry is entirely the caller's concern.
    """
    g = cavity.g_max if g_local is None else g_local
    roots = stationary_photon_numbers(atom, cavity, drive, g_local=g)
    return _state_from_n(roots[0], g, atom, cavity, drive, len(roots), roots)


def empty_cavity_state(cavity: CavityParams, drive: DriveParams) -> StationaryState:
    """Closed-form stationary state with no atom: alpha = eta/(kappa - i*delta_c)."""
    alpha = pump_amplitude(drive, cavity) / (cavity.kappa - 1j * cavity.delta_c)
    n = abs(alpha) ** 2
    return StationaryState(
        alpha=complex(alpha),
        n_photons=float(n),
        rho11=0.0,
        rho01=0j,
        gamma_eff=0.0,
        light_shift=0.0,
        branch_count=1,
        all_roots=(float(n),),
    )


def _empty_photons_over_pump(cavity: CavityParams, j_values: np.ndarray) -> np.ndarray:
    """empty_cavity_state(...).n_photons at each pump rate, to rounding: eta^2/(kappa^2 + delta_c^2)."""
    eta2 = np.asarray(j_values, dtype=float) * cavity.kappa_t
    return eta2 / (cavity.kappa**2 + cavity.delta_c**2)


def _stationary_pump_scan(
    atom: AtomParams, cavity: CavityParams, j_values: np.ndarray
) -> np.ndarray:
    """Lower-branch photon number at g_max for an array of pump rates (vectorized).

    Every element passes the root test |f| <= 1e-12*eta^2.  Where the
    stationary cubic may have more than one positive root, or Newton does
    not converge, it is the photon number of solve_stationary at that pump
    rate.
    """
    gam = atom.gamma
    eta2 = np.asarray(j_values, dtype=float) * cavity.kappa_t
    g2 = (cavity.g_max / gam) ** 2
    return _lower_branch(
        g2, eta2 / gam**2, cavity.kappa / gam, atom.delta_a / gam, cavity.delta_c / gam
    )


def stationary_scan(
    atom: AtomParams, cavity: CavityParams, drive: DriveParams, g_values: np.ndarray
) -> np.ndarray:
    """Lower-branch photon number for an array of local couplings (vectorized).

    Every element passes the root test |f| <= 1e-12*eta^2.  Where the
    stationary cubic may have more than one positive root, or Newton does
    not converge, it is the photon number of solve_stationary at that
    coupling.
    """
    gam = atom.gamma
    g2 = (np.asarray(g_values, dtype=float) / gam) ** 2
    eta2 = drive.j_in * cavity.kappa_t
    return _lower_branch(
        g2, eta2 / gam**2, cavity.kappa / gam, atom.delta_a / gam, cavity.delta_c / gam
    )


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

    initial may be None (empty cavity, ground-state atom), an
    (alpha, rho11, rho01) triple, or a BlochTrajectory whose last sample
    seeds the run.  Only rho11 is integrated for the populations, so
    rho00 + rho11 = 1 holds by construction.
    """
    g = cavity.g_max if g_local is None else g_local
    kap, gam = cavity.kappa, atom.gamma
    da, dc = atom.delta_a, cavity.delta_c
    eta = pump_amplitude(drive, cavity)
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
