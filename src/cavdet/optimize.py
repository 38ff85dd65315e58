"""Scalar maximization helpers and the pump and kappa_t optimizers.

golden_max is Brent's method (parabolic steps, golden-section fallback).
best_pump is the one pump optimizer of both detection schemes, and
max_over_kappa_t runs golden_max over log kappa_t on it.  A scheme enters
them as one plain function, its S from the lower-branch photon number,
snr(atom, cavity, n, tau) for floats and arrays.
best_pump needs no root solve: the pump that holds N photons is explicit,
e2(N) = N*[(kappa + gamma(N))^2 + (delta_c - U(N))^2] (Gamma-scaled), the
S-curve of optical bistability (Lugiato, Prog. Opt. 21, 69 (1984)), so it
maximizes S along the curve's lower branch in N.
Importing the module loads no numpy: best_pump's scan grid, its one
array, is built with numpy on the first scan (_scan_grid).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import NamedTuple

from .errors import NoMaximumInBounds
from .steady_state import _BRACKET_ITERS, _bracketed_root, _cubic_coeffs, _s_curve, _scaled

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of the larger part
_POLISH_RTOL = 1e-8  # the polish's rel_tol in ln(N/N_lo): about 5e-7 in ln N at saturation
_MAX_ITER = 200  # golden_max's step limit
_KAPPA_T_RTOL = 1e-4  # golden_max's rel_tol for the kappa_t search, in log kappa_t
_N_LOW, _N_DECADES = 1e-10, 16  # best_pump's N: 1e-10 to 1e6 saturation photon numbers
_PER_DECADE = 20  # best_pump's scan points per decade of N


@cache
def _scan_grid():
    """best_pump's scan grid t = ln(N/N_lo) and exp(t), built on first use, once per process.

    Both arrays are read-only, so a scan is one multiply and no caller can
    alter the grid.
    """
    import numpy as np

    t = np.linspace(0.0, _N_DECADES * math.log(10.0), _N_DECADES * _PER_DECADE + 1)
    exp_t = np.exp(t)
    t.flags.writeable = exp_t.flags.writeable = False
    return t, exp_t


def golden_max(f, lo: float, hi: float, rel_tol: float):
    """Maximum of f on [lo, hi] by Brent's method; returns (x, f(x)).

    Each step goes to the vertex of the parabola through the best three
    points so far, or, where that step is not trusted (outside the
    bracket, or not under half the step before last), a golden-section
    step into the larger side of the bracket (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).  The first point is
    the golden-section point of [lo, hi].  Steps are at least a quarter of
    the tolerance.  Stops once the bracket [a, b] around the best point is
    at most rel_tol*(|a| + |b|) wide, or after _MAX_ITER steps.  A NaN
    value counts as worse than any number; a best value that is not
    finite raises NoMaximumInBounds.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise NoMaximumInBounds(f"invalid bracket [{lo}, {hi}]")
    x = lo + _CGOLD * (hi - lo)
    return _brent(f, lo, hi, x, f(x), rel_tol)


def _brent(f, a: float, b: float, x: float, fx: float, rel_tol: float):
    """golden_max's search on [a, b] from a first point x inside it whose value fx is known."""

    def value(t):
        y = f(t)
        return -math.inf if y != y else y

    # x is the best point, w the second best, v the previous w
    w = v = x
    fx = fw = fv = -math.inf if fx != fx else fx
    d = e = 0.0  # the last step and the one before it
    for _ in range(_MAX_ITER):
        tol = rel_tol * (abs(a) + abs(b))
        if b - a <= tol:
            break
        tol1 = 0.25 * tol
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol1:
            # the parabola's vertex is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                parabolic = True
                e, d = d, p / q
                if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = math.copysign(tol1, mid - x)
        if not parabolic:
            e = a - x if x >= mid else b - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = value(u)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    if not math.isfinite(fx):
        raise NoMaximumInBounds(f"objective is not finite near x={x:.6g}")
    return x, fx


def _folds(g2, kap, da, dc):
    """The folds N_a < N_b of the Gamma-scaled S-curve e2(N), the positive roots of de2/dN.

    D^3*de2/dN is the cubic Q(N) = p2*b*N^3 + 3*p2*d0*N^2 + (2*p1*d0 - p0*b)*N + p0*d0,
    D = d0 + b*N, b = 2*g2 and p0 + p1*N + p2*N^2 the pump-free coefficients
    of _cubic_coeffs.  Only its linear coefficient can be negative and Q is
    convex for N > 0, so it has two positive roots or none (an empty tuple).
    Newton's method reaches N_a rising from 0 and N_b falling from -q1/q2,
    where Q > 0, without overshooting.
    """
    p2, p1, p0, _ = _cubic_coeffs(g2, 0.0, kap, da, dc)
    d0, b = da * da + 1.0, 2.0 * g2
    q3, q2, q1, q0 = p2 * b, 3.0 * p2 * d0, 2.0 * p1 * d0 - p0 * b, p0 * d0
    cubic = lambda n: ((q3 * n + q2) * n + q1) * n + q0
    # no root where Q is positive at its minimum over N > 0, where Q' = 0
    if q1 >= 0.0 or cubic(-q1 / (q2 + math.sqrt(q2 * q2 - 3.0 * q3 * q1))) >= 0.0:
        return ()

    def newton(n, rising):
        for _ in range(_BRACKET_ITERS):
            step = n - cubic(n) / ((3.0 * q3 * n + 2.0 * q2) * n + q1)
            if (step <= n) if rising else (step >= n):
                break
            n = step
        return n

    return newton(0.0, True), newton(-q1 / q2, False)


class PumpOptimum(NamedTuple):
    """The best pump rate j_in (1/s) of one detection scheme and its S there."""

    j_in: float
    snr: float


def best_pump(snr, atom, cavity, tau: float) -> PumpOptimum:
    """The best pump rate of one detection scheme and its S, without a root solve.

    snr(atom, cavity, n, tau) is the scheme's S at lower-branch photon
    number n at g_max, for floats and arrays; the pump that holds n,
    j(N) = e2(N)*Gamma^2/kappa_t, is taken once, for the returned j_in.
    S is scanned over _N_DECADES decades of N up from _N_LOW times the
    saturation photon number (delta_a^2 + Gamma^2)/(2*g^2), _PER_DECADE
    points per decade.
    The scan keeps the lower branch, N <= N_a or N >= N*, where N_a < N_b
    are the folds (_folds) and N* > N_b holds the pump e2(N_a).  Brent's
    method polishes its best point in t = ln(N/N_lo), from N_lo the range's
    low end, within one scan step and the branch, to a bracket
    _POLISH_RTOL*(|a| + |b|) wide.  Every point it scores lies inside a
    piece of the branch, so the lower root at the returned j_in is its N,
    and the report there, which solves that root again, gives S to 1e-14
    relative away from a fold.  Where the best scan point is an end of
    the N range, S is scored once, one polish tolerance inside it: unless
    S there is at least S at the end, NoMaximumInBounds names the end, else
    the polish starts there, so a maximum inside an end's scan step is
    still found.  g_max = 0 (S is 0 at every pump rate), or a g_max so
    small that the N range is not finite, raises it too.

    On strongly coupled cavities the optimum lies inside the bistable
    window, where the semiclassical model is least trustworthy: on a
    g = 12 MHz, kappa_t = kappa_loss = 0.59 MHz cavity it is S 616.5 at
    338 times the saturation pump, where the master equation gives S 51.
    """
    if cavity.g_max == 0:
        raise NoMaximumInBounds("S is 0 at every pump rate when g_max = 0")
    g2, _, kap, da, dc = _scaled(atom, cavity, cavity.g_max, 0.0)
    n_lo = _N_LOW * (da * da + 1.0) / (2.0 * g2) if g2 > 0 else math.inf
    if not math.isfinite(n_lo * 10.0**_N_DECADES):
        raise NoMaximumInBounds(f"the photon-number range from {n_lo:.6g} is not finite")
    n_a = n_star = math.inf
    if folds := _folds(g2, kap, da, dc):
        n_a, n_b = folds
        e2_a = _s_curve(n_a, g2, kap, da, dc)
        cap = e2_a / (kap * kap)
        n_star = _bracketed_root(n_b, cap, cap, g2, e2_a, kap, da, dc)
    t_grid, exp_t_grid = _scan_grid()
    n = n_lo * exp_t_grid
    s = snr(atom, cavity, n, tau)  # a new array, so the scan may overwrite it
    keep = s == s
    if folds:
        keep &= (n <= n_a) | (n >= n_star)
    s[~keep] = -math.inf
    i = int(s.argmax())
    last = t_grid.size - 1
    a, b = float(t_grid[max(i - 1, 0)]), float(t_grid[min(i + 1, last)])
    if n[i] <= n_a:
        b = min(b, math.log(n_a / n_lo))
    else:
        a = max(a, math.log(n_star / n_lo))

    def polish(t):
        return float(snr(atom, cavity, n_lo * math.exp(t), tau))

    start = float(t_grid[i])
    s_start = polish(start)
    if i in (0, last):
        # a range end: polish only if S does not fall one tolerance inside it
        inside = _POLISH_RTOL * (abs(a) + abs(b))
        start = a + inside if i == 0 else b - inside
        s_end, s_start = s_start, polish(start)
        if not s_start >= s_end:
            end = "high" if i else "low"
            raise NoMaximumInBounds(f"S rises towards the {end} end of the photon-number range")
    t, s_best = _brent(polish, a, b, start, s_start, _POLISH_RTOL)
    j_in = _s_curve(n_lo * math.exp(t), g2, kap, da, dc) * (atom.gamma**2 / cavity.kappa_t)
    return PumpOptimum(j_in, s_best)


@dataclass(frozen=True)
class KappaTOptimum:
    kappa_t: float
    snr: float
    j_in: float
    at_lower_bound: bool
    at_upper_bound: bool


def max_over_kappa_t(snr, atom, cavity, tau: float, bounds=None) -> KappaTOptimum:
    """Mirror transmission maximizing a scheme's pump-optimized SNR.

    snr is the scheme's, as in best_pump.  cavity supplies g_max and
    kappa_loss; its kappa_t is ignored and searched over in log space by
    golden_max (Brent's method, down to a bracket _KAPPA_T_RTOL*(|a| + |b|)
    wide in log kappa_t) on best_pump.  The returned j_in and S are those of
    the search's own pump optimum at the returned kappa_t.  Default bounds
    span [kappa_loss/20, 5*kappa_loss]; explicit bounds are required when
    kappa_loss = 0.  Results landing at a bound are flagged, not raised.
    """
    if bounds is None:
        if cavity.kappa_loss <= 0:
            raise NoMaximumInBounds("explicit bounds required when kappa_loss = 0")
        bounds = (cavity.kappa_loss / 20.0, 5.0 * cavity.kappa_loss)
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise NoMaximumInBounds(f"invalid kappa_t bounds [{lo}, {hi}]")

    optima = {}  # log kappa_t -> the pump optimum there

    def objective(log_kt):
        trial = replace(cavity, kappa_t=math.exp(log_kt))
        optima[log_kt] = best_pump(snr, atom, trial, tau)
        return optima[log_kt].snr

    log_kt, _ = golden_max(objective, math.log(lo), math.log(hi), rel_tol=_KAPPA_T_RTOL)
    kt = math.exp(log_kt)
    j_in, s = optima[log_kt]
    return KappaTOptimum(
        kappa_t=kt,
        snr=s,
        j_in=j_in,
        at_lower_bound=kt <= lo * 1.05,
        at_upper_bound=kt >= hi / 1.05,
    )
