"""Batched pump grids and the one pump optimizer of both schemes.

The batched lower-branch solve over an array of pump rates is checked
against the scalar reports.  optimize.best_pump needs no root solve: it
maximizes a scheme's S from N (_snr_from_n, _snr_hom_from_n) along the
lower branch of the pump's explicit inverse j(N).  Its references here are
the scalar reports alone: a dense log-j scan of them, polished by
golden_max, with the solver inside the test.
"""
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavdet import (
    MHZ,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    NoMaximumInBounds,
    cooperativity,
    dispersive_saturation_pump,
    homodyne_report,
    intensity_report,
    max_snr_hom_over_pump,
    max_snr_over_pump,
    optimal_kappa_t,
    optimal_kappa_t_homodyne,
    saturation_pump,
    solve_stationary,
)
from cavdet import homodyne_detection, optimize, resonant_detection, steady_state
from cavdet.steady_state import _cubic_coeffs, _lower_branch, _residual_scaled, _scaled

TAU = 10 * US
GAMMA = AtomParams().gamma


def _scalar_snr(atom, cavity, j):
    report = homodyne_report if atom.delta_a else intensity_report
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.array([report(atom, cavity, DriveParams(j_in=x, tau=TAU)).snr for x in j])


def _pump_scan(atom, cavity, j):
    """Lower-branch photon numbers at g_max over an array of pump rates, in one batched solve."""
    return _lower_branch(*_scaled(atom, cavity, cavity.g_max, j))


def _snr_from_n(atom):
    """The scheme's S from the lower-branch photon number: dispersive if the atom is detuned."""
    return homodyne_detection._snr_hom_from_n if atom.delta_a else resonant_detection._snr_from_n


def _draws(seed, count):
    """Seeded resonant and dispersive cavities with pumps 2 decades either side of saturation.

    Couplings up to 300 MHz against rates down to 0.1 MHz reach C >> 1,
    where the upper half of the grid is bistable.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        dispersive = k % 2 == 1
        delta_a = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0.5, 3) * GAMMA if dispersive else 0.0
        atom = AtomParams(delta_a=delta_a)
        kt, kl = 10 ** rng.uniform(-1, 2, 2) * MHZ
        cavity = CavityParams(g_max=10 ** rng.uniform(-0.5, 2.5) * MHZ, kappa_t=kt, kappa_loss=kl)
        centre = dispersive_saturation_pump if dispersive else saturation_pump
        yield atom, cavity, centre(atom, cavity) * np.logspace(-2, 2, 61)


@pytest.fixture
def fallbacks(monkeypatch):
    """Pumps e2 (Gamma-scaled) that the grid solve sent to the scalar solver."""
    seen = []
    scalar = steady_state._roots_scaled

    def spy(g2, e2, kap, da, dc):
        seen.append(float(e2))
        return scalar(g2, e2, kap, da, dc)

    monkeypatch.setattr(steady_state, "_roots_scaled", spy)
    return seen


def test_grid_snr_matches_scalar_reports(fallbacks):
    sent = bistable = 0
    for atom, cavity, j in _draws(seed=21, count=120):
        fallbacks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n = _pump_scan(atom, cavity, j)
            grid = _snr_from_n(atom)(atom, cavity, n, TAU)
        fell_back = set(fallbacks)
        ref = _scalar_snr(atom, cavity, j)
        n_ref = np.array([solve_stationary(atom, cavity, DriveParams(x, TAU)).n_photons for x in j])
        e2 = j * cavity.kappa_t / atom.gamma**2
        back = np.array([x in fell_back for x in e2.tolist()])
        # the scalar solver's own lower branch, and both schemes' S from N,
        # to the last bit; S is explicit in N, so it keeps the roots' agreement
        assert np.array_equal(n[back], n_ref[back])
        assert np.array_equal(grid[back], ref[back])
        np.testing.assert_allclose(n, n_ref, rtol=1e-12, atol=0)
        assert np.all(np.abs(grid - ref) <= 1e-12 * np.abs(ref))
        sent += int(back.sum())
        gam = atom.gamma
        g2, kap, da = (cavity.g_max / gam) ** 2, cavity.kappa / gam, atom.delta_a / gam
        screen = steady_state._may_be_bistable(g2, e2, kap, da, 0.0)
        bistable += int(screen.sum())
    # the draws reach the bistable corner, whose pumps all fall back
    assert 0 < bistable <= sent


def test_grid_roots_pass_the_residual_test_or_are_the_scalar_branch(fallbacks):
    for atom, cavity, j in _draws(seed=22, count=40):
        fallbacks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n = _pump_scan(atom, cavity, j)
        gam = atom.gamma
        g2, e2 = (cavity.g_max / gam) ** 2, j * cavity.kappa_t / gam**2
        kap, da = cavity.kappa / gam, atom.delta_a / gam
        f, _ = steady_state._residual_scaled(n, g2, e2, kap, da, 0.0)
        kept = ~np.isin(e2, fallbacks)
        assert np.all(np.abs(f[kept]) <= 1e-12 * e2[kept])
        assert not np.any(steady_state._may_be_bistable(g2, e2, kap, da, 0.0)[kept])


def test_grid_never_returns_a_bad_batched_root(monkeypatch, narrow_cavity):
    # a corrupt Newton start and no Newton iterations: no element converges
    limits = steady_state._two_limits
    monkeypatch.setattr(steady_state, "_two_limits", lambda *a: tuple(1.5 * x for x in limits(*a)))
    monkeypatch.setattr(steady_state, "_TRACK_ITERS", 0)
    schemes = (
        (AtomParams(), saturation_pump),
        (AtomParams(delta_a=200 * GAMMA), dispersive_saturation_pump),
    )
    for a, centre in schemes:
        j = centre(a, narrow_cavity) * np.logspace(-2, 2, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n = _pump_scan(a, narrow_cavity, j)
        n_ref = [solve_stationary(a, narrow_cavity, DriveParams(x, TAU)).n_photons for x in j]
        assert n.tolist() == n_ref
        grid = _snr_from_n(a)(a, narrow_cavity, n, TAU)
        assert grid.tolist() == _scalar_snr(a, narrow_cavity, j).tolist()


# --- the optimizers against a search on the scalar reports ---------------------

# the design-study cavities of perfbench/workloads.py (SWEEP_*)
SWEEP = [
    CavityParams(g_max=g * MHZ, kappa_t=kl * MHZ, kappa_loss=kl * MHZ)
    for g in (4.0, 30.0)
    for kl in (0.59, 6.0)
]
SWEEP_DRIVE = DriveParams(j_in=2e6, tau=TAU)
ATOM_RESONANT = AtomParams()
ATOM_DISPERSIVE = AtomParams(delta_a=200 * 3 * MHZ)
# S and j_in of a pump optimum against the scalar-mapped search: both
# polishes end on the same smooth peak, S flat to rounding across their brackets
S_RTOL, J_RTOL = 1e-12, 1e-6


def _scalar_search(atom, cavity):
    """The pump optimum (j_in, S) from the scalar reports alone.

    A log-j scan of 80 points per decade from 1e-4 to 1e6 times the
    scheme's saturation pump, polished by golden_max in ln j within one
    scan step of its best point.
    """
    centre = (dispersive_saturation_pump if atom.delta_a else saturation_pump)(atom, cavity)
    j = centre * np.logspace(-4, 6, 801)
    s = _scalar_snr(atom, cavity, j)
    k = int(np.argmax(s))
    assert 0 < k < j.size - 1
    f = lambda u: float(_scalar_snr(atom, cavity, [math.exp(u)])[0])
    u, s_best = optimize.golden_max(f, math.log(j[k - 1]), math.log(j[k + 1]), rel_tol=1e-10)
    return math.exp(u), s_best


def _assert_same_optimum(got, expected):
    assert got[1] == pytest.approx(expected[1], rel=S_RTOL, abs=0)
    assert got[0] == pytest.approx(expected[0], rel=J_RTOL, abs=0)


@pytest.mark.parametrize("cavity", SWEEP, ids=[f"sweep{i}" for i in range(len(SWEEP))])
def test_kappa_t_optima_equal_the_scalar_mapped_search(cavity):
    # the scalar search finds the returned pump optimum at the returned
    # kappa_t, and no better one 1 % to either side of it
    searches = (
        (ATOM_RESONANT, optimal_kappa_t),
        (ATOM_DISPERSIVE, optimal_kappa_t_homodyne),
    )
    for atom, search in searches:
        opt = search(atom, cavity, SWEEP_DRIVE)
        assert not (opt.at_lower_bound or opt.at_upper_bound)
        _assert_same_optimum((opt.j_in, opt.snr), _scalar_search(atom, replace(cavity, kappa_t=opt.kappa_t)))
        for f in (0.99, 1.01):
            nearby = _scalar_search(atom, replace(cavity, kappa_t=opt.kappa_t * f))
            assert nearby[1] <= opt.snr * (1.0 + S_RTOL)


FIXTURES = ["main_cavity", "narrow_cavity", "high_loss_cavity", "transit_cavity"]


@pytest.mark.parametrize("name", [*FIXTURES, *range(len(SWEEP))])
def test_pump_maximizers_equal_the_scalar_mapped_search(request, name):
    cavity = SWEEP[name] if isinstance(name, int) else request.getfixturevalue(name)
    schemes = ((ATOM_RESONANT, max_snr_over_pump), (ATOM_DISPERSIVE, max_snr_hom_over_pump))
    for atom, maximize in schemes:
        _assert_same_optimum(maximize(atom, cavity, TAU), _scalar_search(atom, cavity))
    # an asymmetric input mirror doubles both detected counts
    asym = replace(cavity, asymmetric_input=True)
    _assert_same_optimum(
        max_snr_over_pump(ATOM_RESONANT, asym, TAU), _scalar_search(ATOM_RESONANT, asym)
    )


def test_narrow_cavity_optimum_lies_in_the_bistable_window(narrow_cavity):
    # the pump grid of 4 decades about the saturation pump returned its top
    # end here, S 421.6 at 100*j_sat; the scalar search finds S 616.5 at
    # 338*j_sat, where the cubic has three roots and the optimum is the lowest
    j_sat = saturation_pump(ATOM_RESONANT, narrow_cavity)
    expected = _scalar_search(ATOM_RESONANT, narrow_cavity)
    assert expected[1] == pytest.approx(616.5, abs=0.05)
    assert expected[0] / j_sat == pytest.approx(338.1, abs=0.05)
    opt = max_snr_over_pump(ATOM_RESONANT, narrow_cavity, TAU)
    _assert_same_optimum(opt, expected)
    drive = DriveParams(opt.j_in, TAU)
    assert len(steady_state.stationary_photon_numbers(ATOM_RESONANT, narrow_cavity, drive)) == 3
    assert intensity_report(ATOM_RESONANT, narrow_cavity, drive).snr == pytest.approx(
        opt.snr, rel=1e-12, abs=0
    )


def test_pump_maximizers_return_one_pump_optimum(main_cavity):
    # both schemes return optimize.PumpOptimum: fields, indexing and unpacking
    schemes = ((ATOM_RESONANT, max_snr_over_pump), (ATOM_DISPERSIVE, max_snr_hom_over_pump))
    for atom, maximize in schemes:
        opt = maximize(atom, main_cavity, TAU)
        assert type(opt) is optimize.PumpOptimum
        j_in, snr = opt
        assert (j_in, snr) == (opt.j_in, opt.snr) == (opt[0], opt[1])
        assert opt.snr > 0


def test_pump_optimizers_without_coupling_have_no_maximum(main_cavity):
    # S is 0 at every pump rate, and the saturation photon number divides by g^2 = 0
    uncoupled = replace(main_cavity, g_max=0.0)
    calls = (
        lambda: max_snr_over_pump(ATOM_RESONANT, uncoupled, TAU),
        lambda: max_snr_hom_over_pump(ATOM_DISPERSIVE, uncoupled, TAU),
        lambda: optimal_kappa_t(ATOM_RESONANT, uncoupled, SWEEP_DRIVE),
        lambda: optimal_kappa_t_homodyne(ATOM_DISPERSIVE, uncoupled, SWEEP_DRIVE),
    )
    for call in calls:
        with pytest.raises(NoMaximumInBounds):
            call()


@pytest.mark.parametrize("g_max", [1e-150, 1e-200])
def test_pump_optimizers_reject_a_non_finite_photon_number_range(main_cavity, g_max):
    # the N range's high end overflows (1e-150), or g^2 underflows to 0 and
    # its low end is infinite (1e-200, a ZeroDivisionError before)
    weak = replace(main_cavity, g_max=g_max)
    for atom, maximize in ((ATOM_RESONANT, max_snr_over_pump), (ATOM_DISPERSIVE, max_snr_hom_over_pump)):
        with pytest.raises(NoMaximumInBounds, match="photon-number range from .* is not finite"):
            maximize(atom, weak, TAU)


def test_max_on_log_grid_reports_f_at_the_grid_point(main_cavity, narrow_cavity):
    # best_pump's batched scan of S only has to agree with the scalar S to
    # rounding: the polish starts from the scalar S at the best scan point,
    # and only scalar values of S enter the result
    for cavity in (main_cavity, narrow_cavity):
        for atom in (ATOM_RESONANT, ATOM_DISPERSIVE):
            snr = _snr_from_n(atom)

            def off_by_rounding(*args):
                s = snr(*args)
                return s * (1.0 + 1e-14) if isinstance(s, np.ndarray) else s

            expected = _pump_optimum(atom, cavity)
            assert optimize.best_pump(off_by_rounding, atom, cavity, TAU) == expected


# --- the search itself ---------------------------------------------------------


def _pump_optimum(atom, cavity):
    maximize = max_snr_hom_over_pump if atom.delta_a else max_snr_over_pump
    return maximize(atom, cavity, TAU)


@pytest.mark.parametrize("name", FIXTURES)
def test_pump_optimum_beats_a_fine_grid_around_it(request, name):
    # 2,001 scalar reports over one step of the optimizer's grid (20 per
    # decade of N, at least as fine in j) either side of the optimum
    cavity = request.getfixturevalue(name)
    step = 10.0 ** (1.0 / optimize._PER_DECADE)
    for atom in (ATOM_RESONANT, ATOM_DISPERSIVE):
        j_opt, snr = _pump_optimum(atom, cavity)
        j = j_opt * np.logspace(-math.log10(step), math.log10(step), 2001)
        assert snr >= _scalar_snr(atom, cavity, j).max() * (1.0 - 1e-12)


# S may rise towards a fold end of the lower branch by about the polish
# bracket, 6e-7 in ln N, which the polish stays one tolerance inside of
SLACK = 2e-6


@settings(max_examples=60, deadline=None)
@given(
    dispersive=st.booleans(),
    log_c=st.floats(min_value=-1.0, max_value=math.log10(500.0)),
    kappa_t_mhz=st.floats(min_value=0.1, max_value=100.0),
    kappa_loss_mhz=st.floats(min_value=0.1, max_value=100.0),
    delta_a_over_gamma=st.floats(min_value=10.0, max_value=1000.0),
    sign=st.sampled_from([-1.0, 1.0]),
    asymmetric=st.booleans(),
)
# the best point of the N grid is N*, where the upper piece of the lower
# branch starts: at j(N*) itself the lower root is the fold N_a, and S 5.3
# there against 41.05 one polish tolerance inside
@example(True, math.log10(208.0), 12.23, 0.2435, 15.32, 1.0, False)
def test_pump_optimum_beats_a_dense_solver_scan(
    dispersive, log_c, kappa_t_mhz, kappa_loss_mhz, delta_a_over_gamma, sign, asymmetric
):
    atom = AtomParams(delta_a=sign * delta_a_over_gamma * GAMMA if dispersive else 0.0)
    kappa = (kappa_t_mhz + kappa_loss_mhz) * MHZ
    cavity = CavityParams(
        g_max=math.sqrt(10.0**log_c * kappa * GAMMA),
        kappa_t=kappa_t_mhz * MHZ,
        kappa_loss=kappa_loss_mhz * MHZ,
        asymmetric_input=asymmetric,
    )
    assert cooperativity(atom, cavity) == pytest.approx(10.0**log_c, rel=1e-9)
    j_in, snr = _pump_optimum(atom, cavity)
    # the report at j_in solves the cubic there and finds the optimum's N
    assert _scalar_snr(atom, cavity, [j_in])[0] == pytest.approx(snr, rel=1e-12, abs=0)
    centre = (dispersive_saturation_pump if dispersive else saturation_pump)(atom, cavity)
    j = np.concatenate([centre * np.logspace(-4, 6, 401), j_in * np.logspace(-0.05, 0.05, 101)])
    assert snr >= _scalar_snr(atom, cavity, j).max() * (1.0 - SLACK)


def test_folds_are_the_sign_changes_of_the_pump_slope():
    # the positive roots of Q = D^3*de2/dN are where f' of _residual_scaled
    # changes sign on a dense N grid, and f' has the sign of Q just either
    # side; where 2*p1*d0 >= p0*b, or Q stays positive, there are none
    rng = np.random.default_rng(31)
    kinds = {"loop": 0, "2*p1*d0 >= p0*b": 0, "Q stays positive": 0}
    for _ in range(300):
        g2, kap = 10 ** rng.uniform(-1, 4), 10 ** rng.uniform(-1.5, 1.5)
        da = rng.choice([0.0, 1.0]) * rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0, 3)
        dc = rng.choice([0.0, 1.0]) * rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 2)
        d0 = da * da + 1.0
        n = d0 / (2.0 * g2) * np.logspace(-4, 8, 6001)
        slope = _residual_scaled(n, g2, 0.0, kap, da, dc)[1]
        turns = np.flatnonzero(np.sign(slope[1:]) != np.sign(slope[:-1]))
        folds = optimize._folds(g2, kap, da, dc)
        p2, p1, p0, _ = _cubic_coeffs(g2, 0.0, kap, da, dc)
        if 2.0 * p1 * d0 >= p0 * 2.0 * g2:
            kinds["2*p1*d0 >= p0*b"] += 1
            assert folds == ()
        else:
            kinds["loop" if folds else "Q stays positive"] += 1
        assert len(folds) == len(turns)
        for fold, i, falling in zip(folds, turns, (True, False)):
            assert n[i] < fold <= n[i + 1]
            left, right = _residual_scaled(fold * np.array([1 - 1e-6, 1 + 1e-6]), g2, 0.0, kap, da, dc)[1]
            assert (left > 0 > right) if falling else (left < 0 < right)
    assert min(kinds.values()) > 0, kinds


def test_optimal_kappa_t_halves_the_scalar_solves(fallbacks, main_cavity):
    # the golden-section search made 915 scalar root solves here, a polish
    # from the best grid point to 1e-8 129; the search on the pump's
    # inverse j(N) makes none
    optimal_kappa_t(ATOM_RESONANT, main_cavity, SWEEP_DRIVE)
    assert fallbacks == []


def test_design_study_sweep_solve_budget(fallbacks, monkeypatch):
    # perfbench's design-study sweep: both kappa_t searches on the SWEEP
    # cavities made 363 scalar pump roots and 59 batched grid solves; on
    # j(N) they make 59 pump optima with no root solve, and one bracketed
    # solve for N* at each of the 16 optima whose S-curve folds
    counts = {"optima": 0, "fold roots": 0}
    best_pump, bracketed = optimize.best_pump, optimize._bracketed_root

    def spy_pump(*args):
        counts["optima"] += 1
        return best_pump(*args)

    def spy_bracketed(*args):
        counts["fold roots"] += 1
        return bracketed(*args)

    monkeypatch.setattr(optimize, "best_pump", spy_pump)
    monkeypatch.setattr(optimize, "_bracketed_root", spy_bracketed)
    for cavity in SWEEP:
        optimal_kappa_t(ATOM_RESONANT, cavity, SWEEP_DRIVE)
        optimal_kappa_t_homodyne(ATOM_DISPERSIVE, cavity, SWEEP_DRIVE)
    assert fallbacks == []
    assert counts["optima"] <= 62
    assert counts["fold roots"] <= 16


@pytest.mark.parametrize("name", [*FIXTURES, *range(len(SWEEP))])
def test_kappa_t_optimum_is_the_pump_optimum_there(request, name):
    # the search returns the pump optimum its objective found at the
    # returned kappa_t; both run the same best_pump, so to the last bit
    cavity = SWEEP[name] if isinstance(name, int) else request.getfixturevalue(name)
    schemes = (
        (ATOM_RESONANT, optimal_kappa_t, max_snr_over_pump),
        (ATOM_DISPERSIVE, optimal_kappa_t_homodyne, max_snr_hom_over_pump),
    )
    for atom, search, maximize in schemes:
        opt = search(atom, cavity, SWEEP_DRIVE)
        j_in, snr = maximize(atom, replace(cavity, kappa_t=opt.kappa_t), SWEEP_DRIVE.tau)
        assert (opt.j_in, opt.snr) == (j_in, snr)


@pytest.fixture
def solves(monkeypatch):
    """How often solve_stationary and the scalar root solve are called."""
    seen = {"states": 0, "roots": 0}
    solve, roots = steady_state.solve_stationary, steady_state._roots_scaled

    def spy_solve(*args, **kwargs):
        seen["states"] += 1
        return solve(*args, **kwargs)

    def spy_roots(*args):
        seen["roots"] += 1
        return roots(*args)

    # every cavdet module that binds the name
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "cavdet" and getattr(module, "solve_stationary", None) is solve:
            monkeypatch.setattr(module, "solve_stationary", spy_solve)
    monkeypatch.setattr(steady_state, "_roots_scaled", spy_roots)
    return seen


@pytest.mark.parametrize("cavity", SWEEP, ids=[f"sweep{i}" for i in range(len(SWEEP))])
def test_optimizers_build_no_report_but_the_returned_one(solves, cavity):
    # the pump and kappa_t optimizers evaluate S along j(N): they build no
    # report, not even for the returned optimum, and solve no root
    max_snr_over_pump(ATOM_RESONANT, cavity, TAU)
    max_snr_hom_over_pump(ATOM_DISPERSIVE, cavity, TAU)
    optimal_kappa_t_homodyne(ATOM_DISPERSIVE, cavity, SWEEP_DRIVE)
    optimal_kappa_t(ATOM_RESONANT, cavity, SWEEP_DRIVE)
    assert solves == {"states": 0, "roots": 0}
