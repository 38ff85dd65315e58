"""Scalar maximization helpers for smooth, effectively unimodal objectives.

golden_max is Brent's method (parabolic steps, golden-section fallback);
max_on_log_grid scans a log grid and polishes its best point with it.
best_pump is the one pump optimizer of both detection schemes, and
max_over_kappa_t runs golden_max over log kappa_t on it.  A scheme enters
them as two plain functions: its S from the lower-branch photon number,
snr(atom, cavity, j, n, tau) for floats and arrays, and its saturation
pump center(atom, cavity), on which the pump range is centered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NoMaximumInBounds
from .steady_state import _pump_root, _stationary_pump_scan

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of the larger part
_GRID_RTOL = 1e-6  # grid points this close to a grid objective's maximum are rescored with f
_POLISH_RTOL = 1e-8  # the polish's rel_tol in log x: 3e-7 to 5e-7 in ln j, above sqrt(eps)
_MAX_ITER = 200  # golden_max's step limit
_KAPPA_T_RTOL = 1e-4  # golden_max's rel_tol for the kappa_t search, in log kappa_t
_PUMP_DECADES = 4.0  # width of best_pump's range, centered on the saturation pump


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


def max_on_log_grid(f, lo: float, hi: float, per_decade: int, f_grid=None):
    """Grid-then-polish maximization of f over a log-spaced range.

    Scans a grid of per_decade points per decade, then polishes by Brent's
    method (golden_max's search) in log x within one grid step of the best
    point, starting at that point with its value.  The polish stops at a
    bracket [a, b] in log x _POLISH_RTOL*(|a| + |b|) wide, 3e-7 to 5e-7 in
    ln j for pump rates of 1e6 to 1e11/s, over which S is flat to rounding.
    Robust against the mild multimodality that fold points introduce.
    Returns (x, f(x)).  A range that is not 0 < lo < hi with a finite
    hi/lo raises NoMaximumInBounds.

    Where the best grid point is lo or hi, f is evaluated once, one polish
    tolerance inside that end; unless f there is at least f at the end,
    the end is returned without a polish, else the polish starts there.  A
    maximum inside the end interval is still polished; a returned end only
    says that f rises towards it, so such an optimum is bounded by the
    range.

    f_grid, if given, evaluates f over the whole grid array in one call;
    by default f is mapped over the grid.  A grid objective only has to
    agree with f to rounding: the best grid point is chosen by f's own
    values among the points within _GRID_RTOL of the grid maximum, so the
    result is that of the mapped f wherever f_grid is within _GRID_RTOL/2
    of f, relative to the maximum.  Only f's values enter the polish.
    """
    if not (0.0 < lo < hi and math.isfinite(hi / lo)):
        raise NoMaximumInBounds(f"invalid log range [{lo}, {hi}]")
    decades = math.log10(hi / lo)
    n = max(2, int(round(per_decade * decades)) + 1)
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    top = np.arange(n)
    if f_grid is not None:
        approx = f_grid(grid)
        if np.all(np.isfinite(approx)):
            top = np.flatnonzero(approx >= approx.max() - _GRID_RTOL * abs(approx.max()))
    vals = np.array([f(x) for x in grid[top]])
    k = int(np.argmax(vals))
    i, f_i = int(top[k]), float(vals[k])
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, n - 1)])
    if b <= a:
        return float(grid[i]), f_i
    polish = lambda u: f(math.exp(u))
    start, f_start = math.log(grid[i]), f_i
    if i in (0, n - 1):
        # a range end: polish only if f does not fall one tolerance inside it
        inside = _POLISH_RTOL * (abs(a) + abs(b))
        start = a + inside if i == 0 else b - inside
        f_start = polish(start)
        if not f_start >= f_i:
            return float(grid[i]), f_i
    x_log, fx = _brent(polish, a, b, start, f_start, _POLISH_RTOL)
    # a polish that found no better point returns the grid point itself
    return (float(grid[i]), f_i) if x_log == math.log(grid[i]) else (math.exp(x_log), fx)


class PumpOptimum(NamedTuple):
    """The best pump rate j_in (1/s) of one detection scheme and its S there."""

    j_in: float
    snr: float


def best_pump(snr, center, atom, cavity, tau: float, per_decade: int = 61) -> PumpOptimum:
    """The best pump rate of one detection scheme and its S.

    snr(atom, cavity, j, n, tau) is the scheme's S at pump rate j and
    lower-branch photon number n at g_max, for floats and for arrays;
    center(atom, cavity) is its saturation pump.  The log grid,
    _PUMP_DECADES wide and centered on that pump, is solved in one batched
    call (_stationary_pump_scan), and max_on_log_grid polishes its best
    point on the scalar lower root (_pump_root), the root and snr its
    report takes, so S is the report's S at j_in.  An optimum at an end of
    the range is bounded by _PUMP_DECADES and not flagged.  Without coupling
    (g_max = 0) S is 0 at every pump rate, which raises NoMaximumInBounds.
    """
    if cavity.g_max == 0:
        raise NoMaximumInBounds("S is 0 at every pump rate when g_max = 0")
    j_sat = center(atom, cavity)
    lo, hi = j_sat * 10.0 ** (-0.5 * _PUMP_DECADES), j_sat * 10.0 ** (0.5 * _PUMP_DECADES)
    return PumpOptimum(
        *max_on_log_grid(
            lambda j: float(snr(atom, cavity, j, _pump_root(atom, cavity, j), tau)),
            lo,
            hi,
            per_decade=per_decade,
            f_grid=lambda j: snr(atom, cavity, j, _stationary_pump_scan(atom, cavity, j), tau),
        )
    )


@dataclass(frozen=True)
class KappaTOptimum:
    kappa_t: float
    snr: float
    j_in: float
    at_lower_bound: bool
    at_upper_bound: bool


def max_over_kappa_t(snr, center, atom, cavity, tau: float, bounds=None) -> KappaTOptimum:
    """Mirror transmission maximizing a scheme's pump-optimized SNR.

    snr and center are the scheme's, as in best_pump.  cavity supplies g_max
    and kappa_loss; its kappa_t is ignored and searched over in log space by
    golden_max (Brent's method, down to a bracket _KAPPA_T_RTOL*(|a| + |b|)
    wide in log kappa_t), on a 31-per-decade pump grid.  The returned j_in
    and S are those of the search's own pump optimum at the returned
    kappa_t, which is polished to the same tolerance as best_pump's
    61-per-decade one; no pump is re-solved.  Default bounds span
    [kappa_loss/20, 5*kappa_loss]; explicit bounds are required when
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
        optima[log_kt] = best_pump(snr, center, atom, trial, tau, per_decade=31)
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
