"""Scalar maximization helpers for smooth, effectively unimodal objectives."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoMaximumInBounds

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_RTOL = 1e-6  # grid points this close to a grid objective's maximum are rescored with f


def golden_max(f, lo: float, hi: float, rel_tol: float = 1e-6, max_iter: int = 200):
    """Golden-section maximization of f on [lo, hi]; returns (x, f(x))."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise NoMaximumInBounds(f"invalid bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= rel_tol * (abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = c if fc > fd else d
    fx = max(fc, fd)
    if not math.isfinite(fx):
        raise NoMaximumInBounds(f"objective is not finite near x={x:.6g}")
    return x, fx


def max_on_log_grid(
    f, lo: float, hi: float, per_decade: int = 61, polish: bool = True, f_grid=None
):
    """Grid-then-polish maximization of f over a log-spaced range.

    Scans a grid of per_decade points per decade, then golden-sections in
    log space within one grid step of the best point.  Robust against the
    mild multimodality that fold points introduce.  Returns (x, f(x)).

    f_grid, if given, evaluates f over the whole grid array in one call;
    by default f is mapped over the grid.  A grid objective only has to
    agree with f to rounding: the best grid point is chosen by f's own
    values among the points within _GRID_RTOL of the grid maximum, so the
    result is that of the mapped f wherever f_grid is within _GRID_RTOL/2
    of f, relative to the maximum.
    """
    if lo <= 0 or hi <= lo:
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
    i, f_i = int(top[k]), vals[k]
    if not polish:
        return float(grid[i]), float(f_i)
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, n - 1)]
    if b <= a:
        return float(grid[i]), float(f_i)
    x_log, fx = golden_max(lambda u: f(math.exp(u)), math.log(a), math.log(b), rel_tol=1e-10)
    x = math.exp(x_log)
    if fx >= f_i:
        return x, fx
    return float(grid[i]), float(f_i)


@dataclass(frozen=True)
class KappaTOptimum:
    kappa_t: float
    snr: float
    j_in: float
    at_lower_bound: bool
    at_upper_bound: bool


def max_over_kappa_t(pump_max, cavity, bounds=None, rel_tol: float = 1e-4) -> KappaTOptimum:
    """Mirror transmission maximizing a scheme's pump-optimized SNR.

    pump_max(trial_cavity, per_decade) returns (j_in, snr) at the best pump
    rate for that cavity.  cavity supplies g_max and kappa_loss; its kappa_t
    is ignored and searched over in log space, on a 31-per-decade pump grid,
    and the optimum is re-evaluated on the full 61-per-decade grid.  Default
    bounds span [kappa_loss/20, 5*kappa_loss]; explicit bounds are required
    when kappa_loss = 0.  Results landing at a bound are flagged, not raised.
    """
    if bounds is None:
        if cavity.kappa_loss <= 0:
            raise NoMaximumInBounds("explicit bounds required when kappa_loss = 0")
        bounds = (cavity.kappa_loss / 20.0, 5.0 * cavity.kappa_loss)
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise NoMaximumInBounds(f"invalid kappa_t bounds [{lo}, {hi}]")

    def objective(log_kt):
        return pump_max(replace(cavity, kappa_t=math.exp(log_kt)), 31)[1]

    log_kt, _ = golden_max(objective, math.log(lo), math.log(hi), rel_tol=rel_tol)
    kt = math.exp(log_kt)
    j_in, snr = pump_max(replace(cavity, kappa_t=kt), 61)
    return KappaTOptimum(
        kappa_t=kt,
        snr=snr,
        j_in=j_in,
        at_lower_bound=kt <= lo * 1.05,
        at_upper_bound=kt >= hi / 1.05,
    )
