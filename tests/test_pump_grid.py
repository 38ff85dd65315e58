"""Batched pump grids: the verified grid solve and the one pump optimizer of both schemes.

optimize.best_pump evaluates a scheme's S from N (_snr_from_n,
_snr_hom_from_n) on one batched grid solve (_stationary_pump_scan) and
keeps the polish (Brent's method) on the scalar lower root (_pump_root).
The references here are the scalar reports, and the same maximizers with
the scalar objective mapped over the grid.
"""
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cavdet import (
    MHZ,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    NoMaximumInBounds,
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
from cavdet.resonant_detection import _detected_photons
from cavdet.steady_state import _stationary_pump_scan

TAU = 10 * US
GAMMA = AtomParams().gamma


def _scalar_snr(atom, cavity, j):
    report = homodyne_report if atom.delta_a else intensity_report
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.array([report(atom, cavity, DriveParams(j_in=x, tau=TAU)).snr for x in j])


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
            n = _stationary_pump_scan(atom, cavity, j)
            grid = _snr_from_n(atom)(atom, cavity, j, n, TAU)
        fell_back = set(fallbacks)
        ref = _scalar_snr(atom, cavity, j)
        n_ref = np.array([solve_stationary(atom, cavity, DriveParams(x, TAU)).n_photons for x in j])
        e2 = j * cavity.kappa_t / atom.gamma**2
        back = np.array([x in fell_back for x in e2.tolist()])
        # the scalar solver's own lower branch, to the last bit; the resonant
        # grid's empty-cavity count eta^2/(kappa^2 + delta_c^2) rounds unlike
        # the scalar complex quotient, so only the homodyne SNR is bit-equal
        assert np.array_equal(n[back], n_ref[back])
        if atom.delta_a:
            assert np.array_equal(grid[back], ref[back])
        np.testing.assert_allclose(n, n_ref, rtol=1e-12, atol=0)
        if atom.delta_a:
            scale = np.abs(ref)
        else:
            # S is a difference of two photon counts over sqrt(N_out): bound
            # its rounding by the size of the terms, not of the difference,
            # which cancels at weak coupling
            n_out_atom = _detected_photons(n_ref, cavity, TAU)
            empty = [steady_state.empty_cavity_state(cavity, DriveParams(x, TAU)) for x in j]
            n_empty = np.array([e.n_photons for e in empty])
            n_out_empty = _detected_photons(n_empty, cavity, TAU)
            # S at the empty cavity's own photon number is the array path's
            # empty-cavity count minus the scalar state's, over sqrt(N_out,0)
            s_empty = resonant_detection._snr_from_n(atom, cavity, j, n_empty, TAU)
            assert np.all(np.abs(s_empty * np.sqrt(n_out_empty)) <= 1e-15 * n_out_empty)
            scale = (n_out_empty + n_out_atom) / np.sqrt(n_out_atom)
        assert np.all(np.abs(grid - ref) <= 1e-12 * scale)
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
            n = _stationary_pump_scan(atom, cavity, j)
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
            n = _stationary_pump_scan(a, narrow_cavity, j)
        n_ref = [solve_stationary(a, narrow_cavity, DriveParams(x, TAU)).n_photons for x in j]
        assert n.tolist() == n_ref
        grid = _snr_from_n(a)(a, narrow_cavity, j, n, TAU)
        ref = _scalar_snr(a, narrow_cavity, j)
        if a.delta_a:
            assert grid.tolist() == ref.tolist()
        # the resonant grid's empty-cavity count rounds unlike the scalar state's
        np.testing.assert_allclose(grid, ref, rtol=1e-12, atol=0)


# --- the optimizers against their scalar-mapped selves -----------------------

# the design-study cavities of perfbench/workloads.py (SWEEP_*)
SWEEP = [
    CavityParams(g_max=g * MHZ, kappa_t=kl * MHZ, kappa_loss=kl * MHZ)
    for g in (4.0, 30.0)
    for kl in (0.59, 6.0)
]
SWEEP_DRIVE = DriveParams(j_in=2e6, tau=TAU)
ATOM_RESONANT = AtomParams()
ATOM_DISPERSIVE = AtomParams(delta_a=200 * 3 * MHZ)


@pytest.fixture
def mapped(monkeypatch):
    """Calls fn with max_on_log_grid mapping the scalar objective over each grid."""
    grid = optimize.max_on_log_grid

    def scalar_grid(f, lo, hi, per_decade, f_grid=None):
        return grid(f, lo, hi, per_decade=per_decade)

    def call(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(optimize, "max_on_log_grid", scalar_grid)
            return fn(*args, **kwargs)

    return call


@pytest.mark.parametrize("cavity", SWEEP, ids=[f"sweep{i}" for i in range(len(SWEEP))])
def test_kappa_t_optima_equal_the_scalar_mapped_search(mapped, cavity):
    assert optimal_kappa_t(ATOM_RESONANT, cavity, SWEEP_DRIVE) == mapped(
        optimal_kappa_t, ATOM_RESONANT, cavity, SWEEP_DRIVE
    )
    assert optimal_kappa_t_homodyne(ATOM_DISPERSIVE, cavity, SWEEP_DRIVE) == mapped(
        optimal_kappa_t_homodyne, ATOM_DISPERSIVE, cavity, SWEEP_DRIVE
    )


FIXTURES = ["main_cavity", "narrow_cavity", "high_loss_cavity", "transit_cavity"]


@pytest.mark.parametrize("name", [*FIXTURES, *range(len(SWEEP))])
def test_pump_maximizers_equal_the_scalar_mapped_search(mapped, request, name):
    cavity = SWEEP[name] if isinstance(name, int) else request.getfixturevalue(name)
    schemes = ((ATOM_RESONANT, max_snr_over_pump), (ATOM_DISPERSIVE, max_snr_hom_over_pump))
    for atom, maximize in schemes:
        assert maximize(atom, cavity, TAU) == mapped(maximize, atom, cavity, TAU)
    # an asymmetric input mirror doubles both detected counts
    asym = replace(cavity, asymmetric_input=True)
    expected = mapped(max_snr_over_pump, ATOM_RESONANT, asym, TAU)
    assert max_snr_over_pump(ATOM_RESONANT, asym, TAU) == expected


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
    # S is 0 at every pump rate, and the saturation pumps divided by g^2 = 0
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


def test_max_on_log_grid_reports_f_at_the_grid_point():
    # a grid objective that only agrees with f to rounding still returns f's value
    f = lambda x: 5.0 - (np.log10(x) - 1.3) ** 2
    grid_f = lambda xs: f(xs) + 1e-14
    expected = optimize.max_on_log_grid(f, 1.0, 1e3, 11)
    assert optimize.max_on_log_grid(f, 1.0, 1e3, 11, f_grid=grid_f) == expected


def test_max_on_log_grid_breaks_near_ties_with_f():
    # on a flat grid a grid objective off by rounding can move the argmax;
    # the best point is still the one the mapped f picks, and so the bracket
    rng = np.random.default_rng(5)
    f = lambda x: 1.0 + 1e-13 * np.sin(40.0 * np.log(x))
    grid_f = lambda xs: f(xs) + 1e-12 * rng.uniform(-1.0, 1.0, xs.shape)
    expected = optimize.max_on_log_grid(f, 1.0, 1e3, 11)
    for _ in range(20):
        assert optimize.max_on_log_grid(f, 1.0, 1e3, 11, f_grid=grid_f) == expected


# --- the search itself ---------------------------------------------------------


def _pump_optimum(atom, cavity):
    maximize = max_snr_hom_over_pump if atom.delta_a else max_snr_over_pump
    return maximize(atom, cavity, TAU)


@pytest.mark.parametrize("name", FIXTURES)
def test_pump_optimum_beats_a_fine_grid_around_it(request, name):
    # 2,001 scalar reports over one grid step (61 per decade) either side of
    # the optimum, inside the maximizer's 4-decade range
    cavity = request.getfixturevalue(name)
    step = 10.0 ** (1.0 / 61)
    for atom, centre in ((ATOM_RESONANT, saturation_pump), (ATOM_DISPERSIVE, dispersive_saturation_pump)):
        j_opt, snr = _pump_optimum(atom, cavity)
        lo, hi = centre(atom, cavity) * np.array([1e-2, 1e2])
        j = np.logspace(np.log10(max(j_opt / step, lo)), np.log10(min(j_opt * step, hi)), 2001)
        assert snr >= _scalar_snr(atom, cavity, j).max() * (1.0 - 1e-12)


def test_optimal_kappa_t_halves_the_scalar_solves(fallbacks, main_cavity):
    # the golden-section search made 915 scalar root solves here, a polish
    # from a golden-section start to 1e-10 and a re-solve at the optimum 207;
    # a polish from the best grid point to 1e-8, and no re-solve, make 129
    optimal_kappa_t(ATOM_RESONANT, main_cavity, SWEEP_DRIVE)
    assert len(fallbacks) <= 130


def test_design_study_sweep_solve_budget(monkeypatch):
    # perfbench's design-study sweep: both kappa_t searches on the SWEEP
    # cavities made 787 scalar pump roots and 67 grid solves before the
    # polish started at the best grid point, stopped at 1e-8 and the
    # search kept its own optimum; they now make 363 and 59
    counts = {"roots": 0, "grids": 0}
    root, scan = optimize._pump_root, optimize._stationary_pump_scan

    def spy_root(*args):
        counts["roots"] += 1
        return root(*args)

    def spy_scan(*args):
        counts["grids"] += 1
        return scan(*args)

    monkeypatch.setattr(optimize, "_pump_root", spy_root)
    monkeypatch.setattr(optimize, "_stationary_pump_scan", spy_scan)
    for cavity in SWEEP:
        optimal_kappa_t(ATOM_RESONANT, cavity, SWEEP_DRIVE)
        optimal_kappa_t_homodyne(ATOM_DISPERSIVE, cavity, SWEEP_DRIVE)
    assert counts["roots"] <= 400
    assert counts["grids"] <= 62


@pytest.mark.parametrize("name", [*FIXTURES, *range(len(SWEEP))])
def test_kappa_t_optimum_is_the_pump_optimum_there(request, name):
    # the search returns the pump optimum its 31-per-decade objective found
    # at the returned kappa_t; the 61-per-decade maximizer agrees with it
    # to the polish tolerance
    cavity = SWEEP[name] if isinstance(name, int) else request.getfixturevalue(name)
    schemes = (
        (ATOM_RESONANT, optimal_kappa_t, max_snr_over_pump),
        (ATOM_DISPERSIVE, optimal_kappa_t_homodyne, max_snr_hom_over_pump),
    )
    for atom, search, maximize in schemes:
        opt = search(atom, cavity, SWEEP_DRIVE)
        j_in, snr = maximize(atom, replace(cavity, kappa_t=opt.kappa_t), SWEEP_DRIVE.tau)
        assert opt.j_in == pytest.approx(j_in, rel=1e-6, abs=0)
        assert opt.snr == pytest.approx(snr, rel=1e-12, abs=0)


@pytest.fixture
def calls(monkeypatch):
    """solve_stationary calls, and (lo, hi, x, objective evaluations) of each pump maximization."""
    seen = {"solves": 0, "maximizations": []}
    solve, grid = steady_state.solve_stationary, optimize.max_on_log_grid

    def spy_solve(*args, **kwargs):
        seen["solves"] += 1
        return solve(*args, **kwargs)

    def spy_grid(f, lo, hi, *args, **kwargs):
        evaluations = []

        def counted(x):
            evaluations.append(x)
            return f(x)

        x, fx = grid(counted, lo, hi, *args, **kwargs)
        seen["maximizations"].append((lo, hi, x, len(evaluations)))
        return x, fx

    # every cavdet module that binds the name
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "cavdet" and getattr(module, "solve_stationary", None) is solve:
            monkeypatch.setattr(module, "solve_stationary", spy_solve)
    monkeypatch.setattr(optimize, "max_on_log_grid", spy_grid)
    return seen


@pytest.mark.parametrize("cavity", SWEEP, ids=[f"sweep{i}" for i in range(len(SWEEP))])
def test_optimizers_build_no_report_but_the_returned_one(calls, cavity):
    # the polish and the kappa_t search evaluate the SNR from the scalar
    # root, and no report is built, not even for the returned optimum
    max_snr_over_pump(ATOM_RESONANT, cavity, TAU)
    max_snr_hom_over_pump(ATOM_DISPERSIVE, cavity, TAU)
    assert calls["solves"] == 0
    optimal_kappa_t_homodyne(ATOM_DISPERSIVE, cavity, SWEEP_DRIVE)
    calls["maximizations"].clear()
    optimal_kappa_t(ATOM_RESONANT, cavity, SWEEP_DRIVE)
    assert calls["solves"] == 0
    if cavity.g_max == 30 * MHZ:
        # the resonant SNR still rises at the top of the pump range here: an
        # optimum at a range end costs the rescored grid point and one probe
        at_end = [
            n
            for lo, hi, x, n in calls["maximizations"]
            if math.isclose(x, lo, rel_tol=1e-12) or math.isclose(x, hi, rel_tol=1e-12)
        ]
        assert at_end and max(at_end) <= 2
