"""Stationary solutions of the driven atom-cavity model.

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

The scalar solves (solve_stationary, stationary_photon_numbers) run on
Python floats and load no numpy; numpy is imported only where arrays are
made, by the batched solver behind stationary_scan.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import IllConditionedRootsWarning, NoPhysicalRoot
from .params import AtomParams, CavityParams, DriveParams

if TYPE_CHECKING:
    import numpy as np

_MERGE_RTOL = 1e-9  # roots closer than this (relative) are reported as one


@dataclass(frozen=True)
class StationaryState:
    """Self-consistent stationary state on one branch.

    all_roots holds every distinct non-negative photon-number root in
    ascending order; branch_count is its length.  gamma_eff and light_shift
    are the atom-induced damping gamma(N) and detuning U(N) at the returned
    root.
    """

    n_photons: float
    rho11: float
    gamma_eff: float
    light_shift: float
    branch_count: int
    all_roots: tuple[float, ...]


# ---------------------------------------------------------------------------
# stationary root machinery, in units of Gamma for float conditioning
#
# Every root lies in the bracket N in [0, e2/kap^2], where f(0) = -e2 < 0
# and f(e2/kap^2) >= 0.  Both solvers run Newton on the residual f from the
# start of _two_limits: the batched one masked per element (on large arrays,
# over the elements still iterating alone), the scalar one inside sign
# brackets split at the cubic's critical points.
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


def _s_curve(n, g2, kap, da, dc):
    """The scaled pump e2(N) that holds N photons, the S-curve; floats or arrays.

    _residual_scaled's f is e2(N) - e2 by the same operations in the same
    order; this form skips f'.
    """
    d = da * da + 1.0 + 2.0 * g2 * n
    ka = kap + g2 / d
    dd = dc - g2 * da / d
    return n * (ka * ka + dd * dd)


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


_ROOT_RTOL = 1e-12  # N is accepted as a root when |f(N)| <= _ROOT_RTOL * e2
_TRACK_ITERS = 20  # Newton iterations before an element falls back
_BRACKET_ITERS = 100  # safeguarded Newton steps before a bracketed solve gives up
# smallest array whose still-iterating elements are gathered once fewer than
# half remain: a cold solve of ballistic-transit couplings took 113 against
# 88 us with this gathering at 64 elements (solver-sweep's batched calls),
# broke even between 1,024 and 2,048, and took 0.79x the time at 32,016
# (a 16-atom ballistic block); the recoil stepper solves at most 512
_COMPACT_MIN = 4096


def _unconverged(f, e2):
    """True where a residual f fails the root test |f| <= _ROOT_RTOL * e2; arrays or floats."""
    ok = abs(f) <= _ROOT_RTOL * e2
    return not ok if isinstance(ok, bool) else ~ok


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
    if not isinstance(g2, float) and isinstance(e2, float) and b >= e2:
        # then c2 > 0 for every g2 >= 0 of the array g2
        import numpy as np

        return np.zeros(np.shape(g2), dtype=bool)
    return (a + g2 * (b - e2) < 0.0) & (g2 * (g2 + 2.0 * (b - 2.0 * e2)) + a > 0.0)


def _two_limits(g2, e2, kap, da, dc):
    """The weak-drive and fully saturated photon numbers (n_lin, n_sat); Newton's start.

    n_lin = e2/((kap + g2/d0)^2 + (dc - g2*da/d0)^2) is the root with the
    atom unsaturated, exact at g2 = 0.  n_sat is the larger root of
    (kap^2 + dc^2)*N^2 + (kap - dc*da - e2)*N + d0/4, the limit where
    gamma -> 1/(2N) and U -> da/(2N); it is 0 where that quadratic has
    no positive root.  The start is the larger of the two, clipped at
    e2/kap^2.  Works on scalars and on arrays that broadcast.
    """
    d0 = da * da + 1.0
    gam0 = g2 / d0
    n_lin = e2 / ((kap + gam0) ** 2 + (dc - gam0 * da) ** 2)
    a = kap * kap + dc * dc
    b = kap - dc * da - e2
    disc = b * b - a * d0
    # a positive root needs b < 0, where -b + sqrt(disc) does not cancel
    n_sat = ((b < 0.0) & (disc >= 0.0)) * ((abs(disc) ** 0.5 - b) / (2.0 * a))
    return n_lin, n_sat


def _bracketed_root(neg, pos, n, g2, e2, kap, da, dc):
    """The root of f between neg and pos, f(neg) <= 0 <= f(pos), by Newton from n.

    neg and pos come in either order.  Each evaluation of f moves one end
    of the bracket, and a Newton step that would leave it bisects instead.
    As in _lower_branch's cold start, N takes one more step after it first
    passes the root test and must pass again; a passing N is kept where that
    step would not move it or the bracket has closed.  Raises
    NoPhysicalRoot if the bracket closes, or _BRACKET_ITERS steps pass,
    before a root passes.
    """
    passed = False
    for _ in range(_BRACKET_ITERS):
        f, fp = _residual_scaled(n, g2, e2, kap, da, dc)
        ok = not _unconverged(f, e2)
        step = n - f / fp if fp != 0.0 else n
        if ok and (passed or step == n):
            return n
        passed = ok
        if f < 0.0:
            neg = n
        else:
            pos = n
        if not (step - neg) * (step - pos) < 0.0:  # not strictly inside
            step = 0.5 * (neg + pos)
            if step == neg or step == pos:  # no float left between the ends
                if ok:
                    return n
                break
        n = step
    raise NoPhysicalRoot(f"no stationary root passed in its bracket, last N={n:.6g}")


def _roots_scaled(g2, e2, kap, da, dc):
    """Distinct non-negative roots of the scaled stationary equation, ascending.

    Every root lies in [0, e2/kap^2].  Where _may_be_bistable flags the
    cubic, its critical points, the roots of 3*c3*N^2 + 2*c2*N + c1 (both
    positive when c2 < 0 < c1), split that bracket into monotone pieces;
    elsewhere it is one piece.  A piece whose ends differ in the sign of f
    holds exactly one root, _bracketed_root's.  A single piece starts from
    the start of _two_limits; of several, the lowest starts from n_lin,
    the highest from n_sat, and the middle one, which holds a root when
    both others do, from the product of the three roots, -c0/c3.  Every
    root passed the root test in _bracketed_root, which raises
    NoPhysicalRoot where none passes.
    """
    if e2 == 0.0:
        return [0.0]
    cap = e2 / (kap * kap)
    n_lin, n_sat = _two_limits(g2, e2, kap, da, dc)
    crit = []
    if _may_be_bistable(g2, e2, kap, da, dc):
        c3, c2, c1, c0 = _cubic_coeffs(g2, e2, kap, da, dc)
        disc = c2 * c2 - 3.0 * c3 * c1
        q = math.sqrt(max(disc, 0.0)) - c2  # stable quadratic formula: c2 < 0 does not cancel
        if disc > 0.0 and q > 0.0:
            crit = [x for x in (c1 / q, q / (3.0 * c3)) if 0.0 < x < cap]
    if not crit:
        found = [_bracketed_root(0.0, cap, min(max(n_lin, n_sat), cap), g2, e2, kap, da, dc)]
    else:
        ends = [0.0, *crit, cap]
        signs = [-1]
        for x in crit:
            f = _s_curve(x, g2, kap, da, dc) - e2
            signs.append(1 if f > 0.0 else -1 if f < 0.0 else 0)
        signs.append(1)
        last = len(crit)
        by_piece = {}
        for k in (0, last, 1)[: last + 1]:  # the middle piece, if any, last
            if signs[k] * signs[k + 1] > 0:
                continue
            lo, hi = ends[k], ends[k + 1]
            if k == 0:
                n = n_lin
            elif k == last:
                n = n_sat
            elif len(by_piece) == 2:
                # -c0/c3 is a product of positive factors and does not cancel
                n = -c0 / (c3 * by_piece[0] * by_piece[last])
            else:
                n = 0.5 * (lo + hi)
            neg, pos = (lo, hi) if signs[k] < signs[k + 1] else (hi, lo)
            by_piece[k] = _bracketed_root(neg, pos, min(max(n, lo), hi), g2, e2, kap, da, dc)
        found = [by_piece[k] for k in sorted(by_piece)]
    roots = [found[0]]
    for r in found[1:]:
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


def _gather(x, keep, shape):
    """The elements of x broadcast to shape at the flat indices keep; a scalar stays as it is."""
    import numpy as np

    if np.ndim(x) == 0:
        return x
    return np.take(x if np.shape(x) == shape else np.broadcast_to(x, shape).ravel(), keep)


def _lower_branch(g2, e2, kap, da, dc, n_start=None):
    """Lower-branch photon numbers over broadcast arrays of couplings g2 and pumps e2.

    Newton starts from n_start (a stepper passes the previous step's
    roots), or without one from the start of _two_limits.  An element stops
    updating once |f| <= _ROOT_RTOL * e2, so its result never depends on
    the other elements.  From a cold start an element takes one more
    Newton step after it first passes, which brings it to the scalar
    solver's root within rounding, and must pass again.  An element that
    fails the test after _TRACK_ITERS iterations, or that _may_be_bistable
    flags (a converged root need not be the lowest there), is the scalar
    solver's lower branch _roots_scaled(...)[0], which raises
    NoPhysicalRoot where it finds no root.  So every element passes the
    root test.

    A finished element never moves again, so on an array of at least
    _COMPACT_MIN elements, once fewer than half of those still in the loop
    iterate, the iterating ones are gathered and only they are evaluated
    and stepped on; their new N are scattered back into the result.  Every
    element sees the same arithmetic either way, so the result is the
    same to the bit.  The gathering costs more than it saves on small
    arrays (113 against 88 us on a 64-element cold solve), hence the gate.
    """
    import numpy as np

    cold = n_start is None
    if cold:
        n_lin, n_sat = _two_limits(g2, e2, kap, da, dc)
        n = np.minimum(np.maximum(n_lin, n_sat), e2 / (kap * kap))
    else:
        n = n_start
    d0 = da * da + 1.0
    two_g2 = 2.0 * g2
    pending = True  # from a cold start, an element steps once more after it passes
    g2_all, e2_all = g2, e2
    out = at = None  # once compacted: the flat result, and where the iterated elements sit in it
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
        left = np.count_nonzero(todo)
        if it == _TRACK_ITERS or not left:
            break
        fp = s - 2.0 * t * gam * (ka - da * dd) / d
        # a Newton step may at most halve N, which keeps it positive
        step = np.maximum(n - f / np.where(fp == 0.0, 1.0, fp), 0.5 * n)
        if 2 * left >= np.size(todo) or todo.size < _COMPACT_MIN:
            n = np.where(todo, step, n)
            continue
        # a finished element never moves again: only the others are evaluated and stepped on
        keep = np.flatnonzero(todo)
        if out is None:
            shape = todo.shape
            # N is this call's own array except at a warm start's first step
            out = np.broadcast_to(n, shape).flatten() if n is n_start else n.reshape(-1)
            at = keep
        else:
            out[at] = n
            at = at[keep]
        n, g2, e2, pending = (_gather(x, keep, todo.shape) for x in (step, g2, e2, pending))
        two_g2 = 2.0 * g2
    g2, e2 = g2_all, e2_all
    if out is not None:
        out[at] = n
        n = out.reshape(shape)
        todo, failed = np.zeros(shape, dtype=bool), todo
        todo.flat[at] = failed
    redo = todo | _may_be_bistable(g2, e2, kap, da, dc)
    if np.count_nonzero(redo):
        n = np.array(n, dtype=float)
        g2b, e2b = np.broadcast_arrays(g2, e2)
        for i in np.flatnonzero(redo):
            n.flat[i] = _roots_scaled(float(g2b.flat[i]), float(e2b.flat[i]), kap, da, dc)[0]
    return n


def _scaled(atom: AtomParams, cavity: CavityParams, g, j_in):
    """The Gamma-scaled solver arguments (g2, e2, kap, da, dc) at coupling g and pump rate j_in.

    g and j_in may be floats or arrays that broadcast.
    """
    gam = atom.gamma
    return (
        (g / gam) ** 2,
        j_in * cavity.kappa_t / gam**2,
        cavity.kappa / gam,
        atom.delta_a / gam,
        cavity.delta_c / gam,
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def stationary_photon_numbers(
    atom: AtomParams, cavity: CavityParams, drive: DriveParams, g_local: float | None = None
) -> tuple[float, ...]:
    """All distinct non-negative stationary photon numbers, ascending."""
    g = cavity.g_max if g_local is None else g_local
    return tuple(_roots_scaled(*_scaled(atom, cavity, g, drive.j_in)))


def _atom_response(n, g, atom: AtomParams):
    """Saturation denominator D, damping gamma(N) and light shift U(N) at photon number N.

    D = delta_a^2 + Gamma^2 + 2*g^2*N; n may be a float or an array.
    """
    d = atom.delta_a**2 + atom.gamma**2 + 2.0 * g * g * n
    return d, g * g * atom.gamma / d, g * g * atom.delta_a / d


def solve_stationary(
    atom: AtomParams, cavity: CavityParams, drive: DriveParams, g_local: float | None = None
) -> StationaryState:
    """Stationary state on the branch connected to N=0 under a pump ramp.

    g_local overrides cavity.g_max for atoms away from the antinode; mode
    geometry is entirely the caller's concern.
    """
    g = cavity.g_max if g_local is None else g_local
    roots = stationary_photon_numbers(atom, cavity, drive, g_local=g)
    n = roots[0]
    d, gamma_eff, light_shift = _atom_response(n, g, atom)
    return StationaryState(
        n_photons=float(n),
        rho11=float(g * g * n / d),
        gamma_eff=float(gamma_eff),
        light_shift=float(light_shift),
        branch_count=len(roots),
        all_roots=roots,
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
    import numpy as np

    return _lower_branch(*_scaled(atom, cavity, np.asarray(g_values, dtype=float), drive.j_in))
