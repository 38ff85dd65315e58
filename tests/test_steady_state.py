"""Solver checks against independent oracles plus algebraic invariants.

The dense-scan oracle brackets sign changes of the implicit stationary
residual on a fine photon-number grid and polishes each bracket with
Brent's method -- no shared code with the production solver.
"""
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from cavdet import (
    MHZ,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    HomodyneReport,
    ResonantReport,
    StepTooLarge,
    homodyne_report,
    intensity_report,
    solve_stationary,
    stationary_photon_numbers,
    stationary_scan,
)
from cavdet import homodyne_detection, resonant_detection, steady_state
from cavdet.steady_state import _cubic_coeffs, _lower_branch, _may_be_bistable, _scaled
from oracles import empty_photons, integrate_bloch, lower_branch


def residual(n, atom, cavity, drive, g):
    """Implicit stationary equation h(N) = 0, written independently."""
    gam, da, dc = atom.gamma, atom.delta_a, cavity.delta_c
    d = da * da + gam * gam + 2.0 * g * g * n
    gamma_eff = g * g * gam / d
    u = g * g * da / d
    eta2 = drive.j_in * cavity.kappa_t
    return n * ((cavity.kappa + gamma_eff) ** 2 + (dc - u) ** 2) - eta2


def oracle_roots(atom, cavity, drive, g, points=200001):
    """All non-negative roots by dense sign-change scan plus Brent polish."""
    eta2 = drive.j_in * cavity.kappa_t
    n_max = eta2 / cavity.kappa**2
    grid = np.linspace(0.0, n_max * (1 + 1e-9), points)
    vals = np.array([residual(x, atom, cavity, drive, g) for x in grid])
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
        roots.append(
            brentq(
                residual,
                grid[i],
                grid[i + 1],
                args=(atom, cavity, drive, g),
                xtol=1e-300,
                rtol=8.9e-16,
            )
        )
    return roots


@pytest.mark.parametrize(
    "j_per_us,delta_a_gamma,delta_c_mhz",
    [
        (2.0, 0.0, 0.0),
        (120.0, 0.0, 0.0),  # inside the bistable pump range of this cavity
        (500.0, 0.0, 0.0),
        (50.0, 3.0, -2.0),
        (50.0, 200.0, 0.0),
    ],
)
def test_roots_match_dense_scan_oracle(narrow_cavity, j_per_us, delta_a_gamma, delta_c_mhz):
    atom = AtomParams(delta_a=delta_a_gamma * 3 * MHZ)
    cavity = CavityParams(
        g_max=narrow_cavity.g_max,
        kappa_t=narrow_cavity.kappa_t,
        kappa_loss=narrow_cavity.kappa_loss,
        delta_c=delta_c_mhz * MHZ,
    )
    drive = DriveParams(j_in=j_per_us * 1e6, tau=10 * US)
    expected = oracle_roots(atom, cavity, drive, cavity.g_max)
    got = stationary_photon_numbers(atom, cavity, drive)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a == pytest.approx(b, rel=1e-6)


def test_roots_match_oracle_main_cavity(atom, main_cavity):
    for j in [1e5, 1e7, 1e9, 1e11]:
        drive = DriveParams(j_in=j, tau=1e-5)
        expected = oracle_roots(atom, main_cavity, drive, main_cavity.g_max)
        got = stationary_photon_numbers(atom, main_cavity, drive)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, rel=1e-6)


def test_bistable_root_count(atom, narrow_cavity):
    # resonant bistability needs C > 8; this cavity has C ~ 41 and folds
    # for pumps between roughly 74 and 211 photons/us
    inside = stationary_photon_numbers(atom, narrow_cavity, DriveParams(120e6, 1e-5))
    below = stationary_photon_numbers(atom, narrow_cavity, DriveParams(2e6, 1e-5))
    above = stationary_photon_numbers(atom, narrow_cavity, DriveParams(500e6, 1e-5))
    assert len(inside) == 3
    assert len(below) == 1
    assert len(above) == 1
    assert list(inside) == sorted(inside)


def test_connected_branch_is_smallest_root(atom, narrow_cavity):
    drive = DriveParams(120e6, 1e-5)
    roots = stationary_photon_numbers(atom, narrow_cavity, drive)
    state = solve_stationary(atom, narrow_cavity, drive)
    assert state.n_photons == roots[0]
    assert state.branch_count == 3
    assert state.all_roots == roots


def test_fixed_point_oracle_inset(atom, narrow_cavity, drive2):
    # away from the fold the stationary map is a contraction; iterate it
    gam, g = atom.gamma, narrow_cavity.g_max
    eta2 = drive2.j_in * narrow_cavity.kappa_t
    n = 0.0
    for _ in range(400):
        d = gam * gam + 2.0 * g * g * n
        n = eta2 / ((narrow_cavity.kappa + g * g * gam / d) ** 2)
    state = solve_stationary(atom, narrow_cavity, drive2)
    assert state.n_photons == pytest.approx(n, rel=1e-10)


def test_empty_cavity_closed_form():
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ, delta_c=4 * MHZ)
    drive = DriveParams(j_in=5e6, tau=1e-5)
    # eta^2/(kappa^2 + delta_c^2), for floats and arrays alike, is the
    # squared field |eta/(kappa - i*delta_c)|^2
    n_empty = resonant_detection._empty_photons(cavity, drive.j_in)
    field = math.sqrt(drive.j_in * cavity.kappa_t) / (cavity.kappa - 1j * cavity.delta_c)
    assert n_empty == pytest.approx(abs(field) ** 2, rel=1e-14)
    assert n_empty == empty_photons(cavity, drive)
    assert resonant_detection._empty_photons(cavity, np.array([drive.j_in])).tolist() == [n_empty]


def test_zero_coupling_equals_empty(atom, main_cavity, drive2):
    state = solve_stationary(atom, main_cavity, drive2, g_local=0.0)
    assert state.n_photons == pytest.approx(empty_photons(main_cavity, drive2), rel=1e-12)
    assert state.rho11 == 0.0


def test_scan_matches_scalar_solver(atom, main_cavity, drive2):
    g_values = np.array([0.0, 1e-4, 1.0, 1e5, 1e6, 3e7, main_cavity.g_max])
    scanned = stationary_scan(atom, main_cavity, drive2, g_values)
    for g, n in zip(g_values, scanned):
        direct = solve_stationary(atom, main_cavity, drive2, g_local=float(g)).n_photons
        assert n == pytest.approx(direct, rel=1e-9)


def test_scan_matches_scalar_solver_bistable(atom, narrow_cavity):
    drive = DriveParams(120e6, 1e-5)
    g_values = np.linspace(0.0, narrow_cavity.g_max, 101)
    scanned = stationary_scan(atom, narrow_cavity, drive, g_values)
    for g, n in zip(g_values[::10], scanned[::10]):
        direct = solve_stationary(atom, narrow_cavity, drive, g_local=float(g)).n_photons
        assert n == pytest.approx(direct, rel=1e-9)


SCALE_FACTORS = [0.5, 2.0, 10.0]


@pytest.mark.parametrize("r", SCALE_FACTORS)
def test_rate_scaling_invariance(r):
    atom1 = AtomParams(gamma=3 * MHZ, delta_a=7 * MHZ)
    cav1 = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ, delta_c=-2 * MHZ)
    drv1 = DriveParams(j_in=5e7, tau=1e-5)
    atom2 = AtomParams(gamma=r * atom1.gamma, delta_a=r * atom1.delta_a)
    cav2 = CavityParams(
        g_max=r * cav1.g_max,
        kappa_t=r * cav1.kappa_t,
        kappa_loss=r * cav1.kappa_loss,
        delta_c=r * cav1.delta_c,
    )
    drv2 = DriveParams(j_in=r * drv1.j_in, tau=drv1.tau / r)
    s1 = solve_stationary(atom1, cav1, drv1)
    s2 = solve_stationary(atom2, cav2, drv2)
    # photon number and populations are invariant when every rate scales
    # together and the pump flux scales with it
    assert s2.n_photons == pytest.approx(s1.n_photons, rel=1e-9)
    assert s2.rho11 == pytest.approx(s1.rho11, rel=1e-9)
    assert s2.gamma_eff == pytest.approx(r * s1.gamma_eff, rel=1e-9)
    assert s2.light_shift == pytest.approx(r * s1.light_shift, rel=1e-9)


# --- transient integrator ---------------------------------------------------


def test_integrator_empty_cavity_analytic(main_cavity, drive2):
    atom = AtomParams()
    traj = integrate_bloch(atom, main_cavity, drive2, g_local=0.0)
    kap = main_cavity.kappa
    eta = math.sqrt(drive2.j_in * main_cavity.kappa_t)
    alpha_ss = eta / kap
    expected = alpha_ss * (1.0 - np.exp(-kap * traj.times))
    assert np.max(np.abs(traj.alpha - expected)) <= 1e-5 * alpha_ss
    assert np.all(traj.rho11 == 0.0)


@pytest.mark.parametrize("delta_a_gamma,delta_c_mhz", [(0.0, 0.0), (2.0, -1.0)])
def test_integrator_relaxes_to_stationary(main_cavity, delta_a_gamma, delta_c_mhz):
    atom = AtomParams(delta_a=delta_a_gamma * 3 * MHZ)
    cavity = CavityParams(
        g_max=main_cavity.g_max,
        kappa_t=main_cavity.kappa_t,
        kappa_loss=main_cavity.kappa_loss,
        delta_c=delta_c_mhz * MHZ,
    )
    drive = DriveParams(j_in=2e7, tau=1e-5)
    stat = solve_stationary(atom, cavity, drive)
    traj = integrate_bloch(atom, cavity, drive, t_end=30.0 / min(cavity.kappa, atom.gamma))
    n_end = abs(traj.alpha[-1]) ** 2
    assert n_end == pytest.approx(stat.n_photons, rel=1e-4)
    assert traj.rho11[-1] == pytest.approx(stat.rho11, rel=1e-4)


def test_integrator_relaxes_to_lower_branch(atom, narrow_cavity, drive2):
    # ramping from the empty cavity must land on the connected branch
    stat = solve_stationary(atom, narrow_cavity, drive2)
    traj = integrate_bloch(atom, narrow_cavity, drive2)
    assert abs(traj.alpha[-1]) ** 2 == pytest.approx(stat.n_photons, rel=1e-4)


def test_integrator_chaining_matches_single_run(atom, main_cavity, drive2):
    # power-of-two step keeps 1000*dt and 2000*dt exact, so both runs take
    # identical steps and the comparison is roundoff-free
    dt = 2.0**-35
    t_half = 1000 * dt
    one = integrate_bloch(atom, main_cavity, drive2, t_end=2 * t_half, dt=dt)
    first = integrate_bloch(atom, main_cavity, drive2, t_end=t_half, dt=dt)
    second = integrate_bloch(atom, main_cavity, drive2, initial=first, t_end=t_half, dt=dt)
    assert second.alpha[-1] == pytest.approx(one.alpha[-1], rel=1e-12)
    assert second.rho11[-1] == pytest.approx(one.rho11[-1], rel=1e-12)


def test_integrator_rejects_large_step(atom, main_cavity, drive2):
    with pytest.raises(StepTooLarge):
        integrate_bloch(atom, main_cavity, drive2, dt=1.0 / main_cavity.g_max)


# --- property-based invariants ----------------------------------------------

rates = st.floats(min_value=0.1, max_value=100.0)
detunings = st.floats(min_value=-300.0, max_value=300.0)
pumps = st.floats(min_value=1e3, max_value=1e12)


# strong saturation of a resonant, lossless cavity: one root, which a
# closed-form cubic loses to cancellation
CORNER_EXAMPLES = [
    (30.0, 0.109375, 0.0, 0.0, 0.0, 985791632184.0),
    (31.0, 0.109375, 0.0, 0.0, 0.0, 709406480656.0),
]
# likewise, with one real root near N = 14680 where the cubic's discriminant
# rounds to zero: Cardano's formula gives a phantom double root near
# N = 0.003, at a local maximum of f below zero
ZERO_DISCRIMINANT_CASE = (
    37.73909758057446, 0.11007345936385272, 0.0, 0.0, 0.0, 10171988814.799347,
)


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=40.0),
    kt=rates,
    kl=st.floats(min_value=0.0, max_value=100.0),
    da=detunings,
    dc=detunings,
    j=pumps,
)
@example(*CORNER_EXAMPLES[0])
@example(*CORNER_EXAMPLES[1])
@example(*ZERO_DISCRIMINANT_CASE)
def test_root_invariants(g, kt, kl, da, dc, j):
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ, delta_c=dc * MHZ)
    drive = DriveParams(j_in=j, tau=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        roots = stationary_photon_numbers(atom, cavity, drive)
    eta2 = j * cavity.kappa_t
    assert 1 <= len(roots) <= 3
    assert list(roots) == sorted(roots)
    cap = eta2 / cavity.kappa**2
    for n in roots:
        assert 0.0 <= n <= cap * (1 + 1e-9)
        res = residual(n, atom, cavity, drive, cavity.g_max)
        assert abs(res) <= 1e-8 * max(eta2, 1e-300)


# the root-invariant domain, and the strong-saturation corner it rarely reaches
solver_domain = st.tuples(
    st.floats(min_value=0.0, max_value=40.0),
    rates,
    st.floats(min_value=0.0, max_value=100.0),
    detunings,
    detunings,
    pumps,
)
saturation_corner = st.tuples(
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.1),
    st.just(0.0),
    st.just(0.0),
    st.floats(min_value=1e9, max_value=1e12),
)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(solver_domain, saturation_corner))
@example(case=CORNER_EXAMPLES[0])
@example(case=CORNER_EXAMPLES[1])
@example(case=ZERO_DISCRIMINANT_CASE)
def test_batched_lower_branch_is_the_scalar_lower_root(case):
    g, kt, kl, da, dc, j = case
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ, delta_c=dc * MHZ)
    drive = DriveParams(j_in=j, tau=1e-5)
    gam = atom.gamma
    kap, da_s, dc_s = cavity.kappa / gam, atom.delta_a / gam, cavity.delta_c / gam

    def check(n, g_values, j_values, warm=False):
        g_values, j_values = np.broadcast_arrays(g_values, j_values)
        lower = []
        for g_k, j_k in zip(g_values.tolist(), j_values.tolist()):
            d = DriveParams(j_in=j_k, tau=1e-5)
            lower.append(stationary_photon_numbers(atom, cavity, d, g_local=g_k)[0])
        lower = np.array(lower)
        g2, e2 = (g_values / gam) ** 2, j_values * cavity.kappa_t / gam**2
        f, _ = steady_state._residual_scaled(n, g2, e2, kap, da_s, dc_s)
        assert np.all(np.abs(f) <= 1e-12 * e2)
        if warm:
            # a warm start stops at the root test, |f| <= 1e-12*e2, which
            # puts N within 1e-12*e2/f' of the root, not within 1e-12*N
            _, fp = steady_state._residual_scaled(lower, g2, e2, kap, da_s, dc_s)
            assert np.all(np.abs(n - lower) * fp <= 1e-12 * e2 + 1e-15 * lower * fp)
        else:
            np.testing.assert_allclose(n, lower, rtol=1e-12, atol=0)

    g_values = np.linspace(0.0, cavity.g_max, 64)
    j_values = j * np.logspace(-2, 0, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        check(stationary_scan(atom, cavity, drive, g_values), g_values, j)
        check(_lower_branch(*_scaled(atom, cavity, cavity.g_max, j_values)), cavity.g_max, j_values)
        # warm-started along the coupling grid, as the transit stepper does
        g2 = (g_values / gam) ** 2
        e2 = j * cavity.kappa_t / gam**2
        n_cold = steady_state._lower_branch(g2[:-1], e2, kap, da_s, dc_s)
        n_warm = steady_state._lower_branch(g2[1:], e2, kap, da_s, dc_s, n_cold)
        check(n_warm, g_values[1:], j, warm=True)


def _lower_branch_cases(atom, narrow_cavity, transit_cavity):
    """(g2, e2, kap, da, dc, n_start) over more elements than _COMPACT_MIN in every case."""
    rng = np.random.default_rng(26)
    # a ballistic block's couplings: Gaussian envelope times |standing wave|
    y, x = rng.uniform(-3.0, 3.0, (2, 5000))
    g = transit_cavity.g_max * np.exp(-y * y) * np.abs(np.cos(x))
    g2, e2, kap, da, dc = _scaled(atom, transit_cavity, g, 10e6)
    # warm from the couplings one step before, as the recoil stepper starts
    g_before = transit_cavity.g_max * np.exp(-(y - 0.01) ** 2) * np.abs(np.cos(x))
    n_before = _lower_branch(*_scaled(atom, transit_cavity, g_before, 10e6))
    # an array e2 that broadcasts against g2, across narrow_cavity's fold,
    # where _may_be_bistable sends elements to the scalar solver
    g_grid = narrow_cavity.g_max * np.linspace(0.05, 1.0, 80)[:, None]
    j_grid = np.logspace(6, 9.5, 90)
    # warm from the roots themselves, a third of them moved: fewer than half
    # iterate at the first evaluation, so the start array itself is compacted
    n_moved = _lower_branch(g2, e2, kap, da, dc) * np.where(rng.random(5000) < 0.3, 1.5, 1.0)
    return {
        "ballistic": (g2, e2, kap, da, dc, None),
        "warm": (g2, e2, kap, da, dc, n_before),
        "warm, mostly converged": (g2, e2, kap, da, dc, n_moved),
        "array e2": (*_scaled(atom, narrow_cavity, g_grid, j_grid), None),
        "scalar g2, array e2": (*_scaled(atom, transit_cavity, 9 * MHZ, np.logspace(5, 9, 6000)), None),
    }


COMPACT_MIN = steady_state._COMPACT_MIN


@pytest.mark.parametrize("compact_min", [1, COMPACT_MIN, 10**9])
@pytest.mark.parametrize("track_iters", [steady_state._TRACK_ITERS, 3])
def test_lower_branch_matches_the_masked_newton_oracle_bitwise(
    monkeypatch, atom, narrow_cavity, transit_cavity, compact_min, track_iters
):
    # 1 compacts every array once fewer than half its elements iterate, the
    # default only the large ones, 10**9 none; with 3 Newton iterations many
    # elements never converge and take the scalar solver's root
    monkeypatch.setattr(steady_state, "_COMPACT_MIN", compact_min)
    monkeypatch.setattr(steady_state, "_TRACK_ITERS", track_iters)
    cases = _lower_branch_cases(atom, narrow_cavity, transit_cavity)
    gathered, gather = [], steady_state._gather
    monkeypatch.setattr(
        steady_state, "_gather", lambda *args: gathered.append(1) or gather(*args)
    )
    scalar_calls, scalar = [], steady_state._roots_scaled
    monkeypatch.setattr(
        steady_state, "_roots_scaled", lambda *args: scalar_calls.append(1) or scalar(*args)
    )
    for name, (g2, e2, kap, da, dc, n_start) in cases.items():
        assert np.broadcast(g2, e2).size > COMPACT_MIN
        start = None if n_start is None else n_start.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = _lower_branch(g2, e2, kap, da, dc, n_start)
            expected = lower_branch(g2, e2, kap, da, dc, n_start)
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
        assert n_start is None or n_start.tobytes() == start.tobytes(), name
    assert bool(gathered) == (compact_min <= COMPACT_MIN)
    assert scalar_calls  # the bistable fallback, and with 3 iterations the unconverged


def test_one_root_where_the_discriminant_rounds_to_zero(atom):
    g, kt, kl, _, dc, j = ZERO_DISCRIMINANT_CASE
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ, delta_c=dc * MHZ)
    drive = DriveParams(j_in=j, tau=1e-5)
    expected = oracle_roots(atom, cavity, drive, cavity.g_max)
    got = stationary_photon_numbers(atom, cavity, drive)
    assert len(expected) == 1
    assert len(got) == 1
    assert got[0] == pytest.approx(expected[0], rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(solver_domain, saturation_corner))
@example(case=CORNER_EXAMPLES[0])
@example(case=CORNER_EXAMPLES[1])
def test_cold_start_leaves_only_screened_elements_to_the_scalar_solver(case):
    # from the two-limit start, Newton converges on every element that
    # _may_be_bistable does not flag, so only flagged ones fall back
    g, kt, kl, da, dc, j = case
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ, delta_c=dc * MHZ)
    drive = DriveParams(j_in=j, tau=1e-5)
    handed = []
    scalar = steady_state._roots_scaled

    def spy(*args):
        handed.append(args)
        return scalar(*args)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(steady_state, "_roots_scaled", spy)
        stationary_scan(atom, cavity, drive, np.linspace(0.0, cavity.g_max, 64))
        _lower_branch(*_scaled(atom, cavity, cavity.g_max, j * np.logspace(-2, 0, 33)))
    assert all(_may_be_bistable(*args) for args in handed)


# narrow_cavity inside its fold: three positive roots
THREE_ROOT_CASE = (12.0, 0.59, 0.59, 0.0, 0.0, 120e6)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(solver_domain, saturation_corner))
@example(case=CORNER_EXAMPLES[0])
@example(case=ZERO_DISCRIMINANT_CASE)
@example(case=THREE_ROOT_CASE)
def test_scalar_roots_passed_the_bracketed_root_test(case):
    # _roots_scaled returns only N that _bracketed_root's own root test
    # passed, so it checks no residual again
    g, kt, kl, da, dc, j = case
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ, delta_c=dc * MHZ)
    tested, passed = [], set()
    residual, unconverged = steady_state._residual_scaled, steady_state._unconverged

    def spy_residual(n, *args):
        tested.append(n)
        return residual(n, *args)

    def spy_unconverged(f, e2):
        # _bracketed_root tests the residual it has just evaluated
        failed = unconverged(f, e2)
        if not failed:
            passed.add(tested[-1])
        return failed

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(steady_state, "_residual_scaled", spy_residual)
        mp.setattr(steady_state, "_unconverged", spy_unconverged)
        roots = stationary_photon_numbers(atom, cavity, DriveParams(j_in=j, tau=1e-5))
    assert set(roots) <= passed
    # and no residual is evaluated at a root a second time
    assert all(tested.count(n) == 1 for n in roots)
    if case == THREE_ROOT_CASE:
        assert len(roots) == 3


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(solver_domain, saturation_corner), asymmetric=st.booleans())
@example(case=CORNER_EXAMPLES[0], asymmetric=False)
@example(case=ZERO_DISCRIMINANT_CASE, asymmetric=True)
def test_pump_objectives_are_the_reports_snr(case, asymmetric):
    # the optimizers' polish evaluates each scheme's S on the scalar lower
    # root in place of the report, and their results are the reports' only
    # if this is ==
    g, kt, kl, da, dc, j = case
    cavity = CavityParams(
        g_max=g * MHZ,
        kappa_t=kt * MHZ,
        kappa_loss=kl * MHZ,
        delta_c=dc * MHZ,
        asymmetric_input=asymmetric,
    )
    drive = DriveParams(j_in=j, tau=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resonant = AtomParams(delta_a=da * MHZ)
        expected = intensity_report(resonant, cavity, drive).snr
        n = stationary_photon_numbers(resonant, cavity, drive)[0]
        assert resonant_detection._snr_from_n(resonant, cavity, n, drive.tau) == expected
        # homodyne detection pumps on the cavity line, with the atom detuned
        dispersive = AtomParams(delta_a=(da if abs(da) > 1e-6 else 1.0) * MHZ)
        on_line = replace(cavity, delta_c=0.0)
        expected = homodyne_report(dispersive, on_line, drive).snr
        n = stationary_photon_numbers(dispersive, on_line, drive)[0]
        assert homodyne_detection._snr_hom_from_n(dispersive, on_line, n, drive.tau) == expected


def _reports_from_states(resonant, dispersive, cavity, on_line, drive):
    """Both reports as they were built from a StationaryState: the reports' oracle.

    The empty cavity holds eta^2/(kappa^2 + delta_c^2) photons, a photon
    number n is detected as n*kappa_t*tau, twice that with an asymmetric
    input, and N_out,0 - N_out is the atom's share of the state's damping
    and light shift, N_out*[gamma*(2*kappa + gamma) + U*(U - 2*delta_c)]/(kappa^2 + delta_c^2).
    """

    def detected(n, cav):
        return (2.0 if cav.asymmetric_input else 1.0) * n * cav.kappa_t * drive.tau

    def n_empty(cav):
        return drive.j_in * cav.kappa_t / (cav.kappa**2 + cav.delta_c**2)

    state = solve_stationary(resonant, cavity, drive)
    n_out_atom = detected(state.n_photons, cavity)
    gam, u, kap, dc = state.gamma_eff, state.light_shift, cavity.kappa, cavity.delta_c
    share = (gam * (2.0 * kap + gam) + u * (u - 2.0 * dc)) / (kap**2 + dc**2)
    intensity = ResonantReport(
        n_out_empty=detected(n_empty(cavity), cavity),
        n_out_atom=n_out_atom,
        snr=math.sqrt(n_out_atom) * share,
        m_scattered=2.0 * resonant.gamma * drive.tau * state.rho11,
        saturation=2.0 * cavity.g_max * cavity.g_max * state.n_photons / resonant.gamma**2,
    )
    state = solve_stationary(dispersive, on_line, drive)
    n_out = detected(state.n_photons, on_line)
    phi, snr = homodyne_detection._phase_and_snr(state.light_shift, on_line.kappa, n_out)
    homodyne = HomodyneReport(
        phase_shift=phi,
        snr=snr,
        n_out=n_out,
        n_out_empty=detected(n_empty(on_line), on_line),
        m_scattered=2.0 * dispersive.gamma * drive.tau * state.rho11,
        small_angle_valid=abs(phi) < homodyne_detection.SMALL_ANGLE_MAX,
    )
    return intensity, homodyne


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(solver_domain, saturation_corner), asymmetric=st.booleans())
@example(case=CORNER_EXAMPLES[0], asymmetric=False)
@example(case=ZERO_DISCRIMINANT_CASE, asymmetric=True)
@example(case=(0.0, 3.0, 6.0, 40.0, 2.5, 2e6), asymmetric=True)
@example(case=(0.0, 0.59, 0.59, 0.0, -7.0, 1e9), asymmetric=False)
@example(case=(12.0, 3.0, 6.0, 0.0, 15.0, 2e6), asymmetric=True)
def test_reports_are_the_stationary_state_route(case, asymmetric):
    # each report computes every field from the lower root with its
    # optimizers' arithmetic; field by field it is the report built from
    # solve_stationary and the empty cavity's closed form, to the bit
    g, kt, kl, da, dc, j = case
    cavity = CavityParams(
        g_max=g * MHZ,
        kappa_t=kt * MHZ,
        kappa_loss=kl * MHZ,
        delta_c=dc * MHZ,
        asymmetric_input=asymmetric,
    )
    drive = DriveParams(j_in=j, tau=1e-5)
    resonant = AtomParams(delta_a=da * MHZ)
    dispersive = AtomParams(delta_a=(da if abs(da) > 1e-6 else 1.0) * MHZ)
    on_line = replace(cavity, delta_c=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = (intensity_report(resonant, cavity, drive), homodyne_report(dispersive, on_line, drive))
        expected = _reports_from_states(resonant, dispersive, cavity, on_line, drive)
    for report, oracle in zip(got, expected):
        assert type(report) is type(oracle)
        for field in fields(report):
            value, old = getattr(report, field.name), getattr(oracle, field.name)
            assert value == old and repr(value) == repr(old), field.name


def test_roots_either_side_of_the_folds(atom, narrow_cavity):
    # the bistable pump range ends where the residual at one of the cubic's
    # critical points changes sign: at the upper one the upper branch
    # appears, at the lower one the lower branch ends
    gam = atom.gamma
    g2, kap = (narrow_cavity.g_max / gam) ** 2, narrow_cavity.kappa / gam

    def f_at_critical_point(j, sign):
        c3, c2, c1, _ = _cubic_coeffs(g2, j * narrow_cavity.kappa_t / gam**2, kap, 0.0, 0.0)
        n = (-c2 + sign * math.sqrt(c2 * c2 - 3.0 * c3 * c1)) / (3.0 * c3)
        return residual(n, atom, narrow_cavity, DriveParams(j, 1e-5), narrow_cavity.g_max)

    def fold(sign, lo, hi):
        lo_positive = f_at_critical_point(lo, sign) > 0.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if (f_at_critical_point(mid, sign) > 0.0) == lo_positive:
                lo = mid
            else:
                hi = mid
        return lo

    low_fold = fold(1.0, 70e6, 120e6)
    high_fold = fold(-1.0, 120e6, 300e6)
    assert 70e6 < low_fold < 80e6 and 200e6 < high_fold < 220e6
    cases = [
        (low_fold * (1 - 1e-6), 1),
        (low_fold * (1 + 1e-6), 3),
        (high_fold * (1 - 1e-6), 3),
        (high_fold * (1 + 1e-6), 1),
    ]
    for j, count in cases:
        drive = DriveParams(j, 1e-5)
        got = stationary_photon_numbers(atom, narrow_cavity, drive)
        expected = oracle_roots(atom, narrow_cavity, drive, narrow_cavity.g_max)
        assert len(got) == len(expected) == count
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, rel=1e-6)


@settings(max_examples=150, deadline=None)
@given(
    g=st.floats(min_value=0.1, max_value=40.0),
    kt=rates,
    kl=st.floats(min_value=0.0, max_value=100.0),
    da=detunings,
    j=pumps,
)
def test_atom_never_brightens_resonant_cavity(g, kt, kl, da, j):
    # with the pump on the cavity line, an atom can only damp or detune the
    # mode, never raise the photon number above the empty-cavity level
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ)
    drive = DriveParams(j_in=j, tau=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = solve_stationary(atom, cavity, drive)
    assert state.n_photons <= empty_photons(cavity, drive) * (1 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(
    g=st.floats(min_value=0.1, max_value=40.0),
    kt=rates,
    kl=st.floats(min_value=0.0, max_value=100.0),
    da=detunings,
    dc=detunings,
    j=pumps,
)
def test_population_and_coherence_bounds(g, kt, kl, da, dc, j):
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ, delta_c=dc * MHZ)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = solve_stationary(atom, cavity, DriveParams(j_in=j, tau=1e-5))
    # |rho01|^2 = rho11*(1 - 2*rho11) in this model, so this also bounds
    # |rho01| by 1/(2*sqrt(2))
    assert 0.0 <= state.rho11 < 0.5
    # gamma_eff and light shift share one denominator
    assert state.gamma_eff * atom.delta_a == pytest.approx(
        state.light_shift * atom.gamma, rel=1e-9, abs=1e-30
    )


@pytest.mark.parametrize(
    "g,kt,da,dc",
    [
        (0.125, 0.125, 229.37389034384915, 229.37389034384915),  # one real root
        (0.109375, 0.1, 228.5, 229.5),  # three real roots
        (0.1, 0.1, 280.0, 280.0),
        (0.1, 0.1015625, 252.375, 252.482421875),
        (0.012152777777777776, 0.1, 58.0, 238.0625),  # discriminant rounds to 0
    ],
)
def test_tiny_root_beside_large_roots(g, kt, da, dc):
    # far-detuned weak pump: the physical root (~1e-10 photons) is many
    # orders below the cubic's other roots, which a closed-form cubic loses
    # to cancellation against its shift -c2/(3*c3)
    atom = AtomParams(delta_a=da * MHZ)
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=0.0, delta_c=dc * MHZ)
    drive = DriveParams(j_in=1000.0, tau=1e-5)
    n = solve_stationary(atom, cavity, drive).n_photons
    eta2 = drive.j_in * cavity.kappa_t
    assert 0.0 < n
    assert abs(residual(n, atom, cavity, drive, cavity.g_max)) <= 1e-12 * eta2


@settings(max_examples=100, deadline=None)
@given(
    g=st.floats(min_value=0.1, max_value=11.0),
    kt=st.floats(min_value=3.0, max_value=50.0),
    kl=st.floats(min_value=3.0, max_value=100.0),
    j1=st.floats(min_value=1e3, max_value=1e11),
    factor=st.floats(min_value=1.01, max_value=100.0),
)
def test_monotone_in_pump_below_bistability(g, kt, kl, j1, factor):
    # parameter box keeps C < 8, where the resonant response is single-valued
    atom = AtomParams()
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ)
    c = cavity.g_max**2 / (cavity.kappa * atom.gamma)
    assert c < 8.0
    n1 = solve_stationary(atom, cavity, DriveParams(j_in=j1, tau=1e-5)).n_photons
    n2 = solve_stationary(atom, cavity, DriveParams(j_in=j1 * factor, tau=1e-5)).n_photons
    assert n2 >= n1 * (1 - 1e-12)


def test_bistability_screen_matches_cubic_coefficient_signs():
    # the factored screen of the warm-started solve against the signs of
    # c2 and c1 computed from the cubic's coefficients directly
    rng = np.random.default_rng(11)
    g2 = 10.0 ** np.linspace(-6.0, 4.0, 101)
    flagged = compared = 0
    for _ in range(400):
        e2 = 10.0 ** rng.uniform(-3, 5)
        kap = 10.0 ** rng.uniform(-2, 2)
        da, dc = rng.uniform(-50, 50, 2)
        _, c2, c1, _ = _cubic_coeffs(g2, e2, kap, da, dc)
        # compare only where each coefficient is clear of the rounding of its terms
        d0, b = da * da + 1.0, 2.0 * g2
        a1, a2 = kap * d0 + g2, dc * d0 - g2 * da
        clear = (np.abs(c2) > 1e-9 * (2.0 * (np.abs(a1 * kap * b) + np.abs(a2 * dc * b)) + e2 * b * b)) & (
            np.abs(c1) > 1e-9 * (a1 * a1 + a2 * a2 + 2.0 * e2 * d0 * b)
        )
        screen = _may_be_bistable(g2, e2, kap, da, dc)
        assert np.array_equal(screen[clear], ((c2 < 0.0) & (c1 > 0.0))[clear])
        flagged += int(screen.sum())
        compared += int(clear.sum())
    assert compared > 0.99 * 400 * g2.size
    assert 0.01 * compared < flagged < 0.99 * compared

    # an array of pumps against one coupling and against an array of
    # couplings: the same signs, and the answer of one scalar-pump call per
    # element (which may take the b >= e2 shortcut)
    rng = np.random.default_rng(12)
    e2 = 10.0 ** np.linspace(-3.0, 5.0, 81)
    flagged = compared = 0
    for _ in range(400):
        g2 = 10.0 ** rng.uniform(-6, 4)
        kap = 10.0 ** rng.uniform(-2, 2)
        da, dc = rng.uniform(-50, 50, 2)
        _, c2, c1, _ = _cubic_coeffs(g2, e2, kap, da, dc)
        d0, b = da * da + 1.0, 2.0 * g2
        a1, a2 = kap * d0 + g2, dc * d0 - g2 * da
        clear = (np.abs(c2) > 1e-9 * (2.0 * (np.abs(a1 * kap * b) + np.abs(a2 * dc * b)) + e2 * b * b)) & (
            np.abs(c1) > 1e-9 * (a1 * a1 + a2 * a2 + 2.0 * e2 * d0 * b)
        )
        screen = _may_be_bistable(g2, e2, kap, da, dc)
        assert np.array_equal(screen[clear], ((c2 < 0.0) & (c1 > 0.0))[clear])
        assert screen.tolist() == [bool(_may_be_bistable(g2, x, kap, da, dc)) for x in e2.tolist()]
        g2s = 10.0 ** rng.uniform(-6, 4, e2.size)
        both = _may_be_bistable(g2s, e2, kap, da, dc)
        one_by_one = [bool(_may_be_bistable(g, x, kap, da, dc)) for g, x in zip(g2s, e2.tolist())]
        assert both.tolist() == one_by_one
        flagged += int(screen.sum())
        compared += int(clear.sum())
    assert compared > 0.99 * 400 * e2.size
    assert 0.01 * compared < flagged < 0.99 * compared
