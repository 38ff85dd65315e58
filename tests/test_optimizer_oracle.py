"""The pump and kappa_t optimizers against oracles.best_pump, bit for bit.

best_pump scans a read-only grid built once per process, takes j(N)
without f', and its schemes score float S with math.sqrt and math.sin;
oracles.best_pump builds its grid at each call, takes j(N) from
_residual_scaled and scores every S with numpy.  Both score the same
points by the same arithmetic, so every optimum and every exception
must be the same.
"""
import math
import re
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavdet import (
    MHZ,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    HomodyneReport,
    KappaTOptimum,
    NoMaximumInBounds,
    PumpOptimum,
    ResonantReport,
    homodyne_report,
    intensity_report,
    max_snr_hom_over_pump,
    max_snr_over_pump,
    optimal_kappa_t,
    optimal_kappa_t_homodyne,
    optimize,
    stationary_photon_numbers,
)
from cavdet.homodyne_detection import _phase_and_snr, _snr_hom_from_n
from cavdet.resonant_detection import _snr_from_n
from cavdet.steady_state import _atom_response, _residual_scaled, _scaled

import oracles

TAU = 10 * US
GAMMA = AtomParams().gamma
DRIVE = DriveParams(j_in=2e6, tau=TAU)


def _outcome(f, *args):
    """f(*args), or the plain tuple (type, message) of the NoMaximumInBounds it raises."""
    try:
        return f(*args)
    except NoMaximumInBounds as exc:
        return type(exc), str(exc)


def _g_near_the_range_limit(atom, factor):
    """factor times the g_max whose N range from _N_LOW ends at the largest float."""
    d0 = (atom.delta_a / GAMMA) ** 2 + 1.0
    g2 = 10.0**optimize._N_DECADES * optimize._N_LOW * d0 / 2.0 / sys.float_info.max
    return factor * math.sqrt(g2) * GAMMA


def _cavities(seed, count):
    """Seeded resonant and dispersive cavities, from weakly coupled to bistable."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        dispersive = k % 2 == 1
        delta_a = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0, 3) * GAMMA if dispersive else 0.0
        kt, kl = 10 ** rng.uniform(-1.5, 2, 2) * MHZ
        g = 10 ** rng.uniform(-1, 3) * MHZ
        yield AtomParams(delta_a=delta_a), CavityParams(g_max=g, kappa_t=kt, kappa_loss=kl)
    # about the finite-range limit: a range that overflows, an S that
    # overflows, and one S still finite (1.8e-141 resonant at factor 1e10:
    # S falls as 1/sqrt(N) at the high end, so it never rises to it)
    for delta_a in (0.0, 200 * GAMMA):
        atom = AtomParams(delta_a=delta_a)
        for factor in (0.999, 1.001, 1e10):
            g = _g_near_the_range_limit(atom, factor)
            yield atom, CavityParams(g_max=g, kappa_t=6 * MHZ, kappa_loss=6 * MHZ)


def _schemes(atom):
    """(pump optimizer, kappa_t optimizer, oracle S) of the atom's scheme."""
    if atom.delta_a:
        return max_snr_hom_over_pump, optimal_kappa_t_homodyne, oracles.homodyne_snr_from_n
    return max_snr_over_pump, optimal_kappa_t, oracles.intensity_snr_from_n


CAVITIES = list(_cavities(27, 200))


def _folded(atom, cavity):
    g2, _, kap, da, dc = _scaled(atom, cavity, cavity.g_max, 0.0)
    return bool(optimize._folds(g2, kap, da, dc))


def test_draws_cover_folds_and_both_schemes():
    for dispersive in (False, True):
        kinds = {_folded(a, c) for a, c in CAVITIES if bool(a.delta_a) == dispersive}
        assert kinds == {False, True}


def test_optimizers_equal_the_oracle(monkeypatch):
    raised = []
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        got = []
        for atom, cavity in CAVITIES:
            pump, kappa_t, _ = _schemes(atom)
            got.append((_outcome(pump, atom, cavity, TAU), _outcome(kappa_t, atom, cavity, DRIVE)))
        monkeypatch.setattr(optimize, "best_pump", oracles.best_pump)
        for (atom, cavity), (pump_opt, kappa_t_opt) in zip(CAVITIES, got):
            oracle_snr = _schemes(atom)[2]
            assert pump_opt == _outcome(oracles.best_pump, oracle_snr, atom, cavity, TAU)
            assert kappa_t_opt == _outcome(optimize.max_over_kappa_t, oracle_snr, atom, cavity, TAU)
            raised += [r[1] for r in (pump_opt, kappa_t_opt) if type(r) is tuple]
    kinds = {re.sub(r" (near|from) .*", "", message) for message in raised}
    assert kinds == {"objective is not finite", "the photon-number range"}


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_range_end_raises_as_in_the_oracle(sign):
    # neither scheme's S rises towards an end of the N range (it goes as
    # sqrt(N) at the low end and falls at the high end), so a monotone S
    # stands in for one
    atom, cavity = AtomParams(), CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)
    snr = lambda atom, cavity, n, tau: sign * np.log(n)
    got = _outcome(optimize.best_pump, snr, atom, cavity, TAU)
    assert got == _outcome(oracles.best_pump, snr, atom, cavity, TAU)
    end = "high" if sign > 0 else "low"
    assert got == (NoMaximumInBounds, f"S rises towards the {end} end of the photon-number range")


def _spy(snr, calls):
    def spied(atom, cavity, n, tau):
        calls.append(n.copy() if isinstance(n, np.ndarray) else n)
        return snr(atom, cavity, n, tau)

    return spied


@pytest.mark.parametrize(
    "atom, cavity",
    [
        (AtomParams(), CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)),
        (AtomParams(), CavityParams(g_max=12 * MHZ, kappa_t=0.59 * MHZ, kappa_loss=0.59 * MHZ)),
        (AtomParams(delta_a=200 * GAMMA), CavityParams(g_max=30 * MHZ, kappa_t=6 * MHZ, kappa_loss=6 * MHZ)),
    ],
    ids=["main", "narrow (folds)", "dispersive"],
)
def test_best_pump_scores_the_oracles_points(atom, cavity):
    # one array call, and the same float calls at the same photon numbers
    assert _folded(atom, cavity) == (cavity.kappa_t < 1 * MHZ)
    snr = _snr_hom_from_n if atom.delta_a else _snr_from_n
    calls, oracle_calls = [], []
    optimize.best_pump(_spy(snr, calls), atom, cavity, TAU)
    oracles.best_pump(_spy(snr, oracle_calls), atom, cavity, TAU)
    arrays = [n for n in calls if isinstance(n, np.ndarray)]
    assert len(arrays) == 1 and isinstance(calls[0], np.ndarray)
    assert np.array_equal(arrays[0], oracle_calls[0])
    assert calls[1:] == oracle_calls[1:]
    assert all(type(n) is float for n in calls[1:])


# a weakly coupled resonant cavity, C = 0.0042, where S taken as a
# difference of two counts would lose two digits
WEAK_CAVITY = CavityParams(g_max=1.0 * MHZ, kappa_t=1.45 * MHZ, kappa_loss=77.2 * MHZ)


def test_reports_at_the_optima_give_their_snr():
    # the report at an optimum's j_in solves again the root the optimizer
    # scored; S is explicit in N, so the two agree to rounding at every
    # coupling wherever that root is well conditioned, its condition number
    # |d ln N/d ln j| = e2/(N*de2/dN) at most 100.  Only homodyne optima at a
    # fold of the lower branch are not, where the solver's residual
    # tolerance leaves N uncertain by about its square root
    draws = [(AtomParams(), WEAK_CAVITY), *list(_cavities(28, 320))[:320]]
    checked, at_fold = 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for atom, cavity in draws:
            maximize = _schemes(atom)[0]
            report = homodyne_report if atom.delta_a else intensity_report
            opt = maximize(atom, cavity, TAU)
            drive = DriveParams(opt.j_in, TAU)
            n = stationary_photon_numbers(atom, cavity, drive)[0]
            g2, _, kap, da, dc = _scaled(atom, cavity, cavity.g_max, 0.0)
            e2, slope = _residual_scaled(n, g2, 0.0, kap, da, dc)
            if abs(e2 / (n * slope)) > 100.0:
                at_fold.append(atom)
                continue
            assert report(atom, cavity, drive).snr == pytest.approx(opt.snr, rel=1e-14, abs=0)
            checked += 1
    assert checked >= 300
    assert len(at_fold) <= 5 and all(atom.delta_a for atom in at_fold)


def test_kappa_t_search_builds_no_grid(monkeypatch, main_cavity):
    # the grid is built on the first scan of the process, here if none ran before
    grid = optimize._scan_grid()

    def no_grid(*args, **kwargs):
        raise AssertionError("np.linspace was called")

    monkeypatch.setattr(np, "linspace", no_grid)
    optimal_kappa_t(AtomParams(), main_cavity, DRIVE)
    optimal_kappa_t_homodyne(AtomParams(delta_a=200 * GAMMA), main_cavity, DRIVE)
    assert optimize._scan_grid() is grid


@pytest.mark.parametrize("index, first", [(0, 0.0), (1, 1.0)], ids=["t", "exp_t"])
def test_scan_grids_are_read_only(index, first):
    grid = optimize._scan_grid()[index]
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid *= 2.0
    assert grid[0] == first


def _bits(x):
    return np.float64(x).tobytes()


PHOTONS = st.floats(min_value=0.0, max_value=1e12)


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=1e3),
    n=st.floats(min_value=0.0, max_value=1e9),
    kappa_t=st.floats(min_value=1e-2, max_value=1e3),
    kappa_loss=st.floats(min_value=0.0, max_value=1e3),
    delta_c=st.floats(min_value=-1e3, max_value=1e3),
    asymmetric=st.booleans(),
    at=st.integers(0, 32),
)
@example(12.0, 0.0, 3.0, 6.0, 0.0, False, 0)
@example(0.0, 1.0, 3.0, 6.0, 2.0, True, 5)
def test_snr_from_n_of_a_float_is_that_of_the_array_element(
    g, n, kappa_t, kappa_loss, delta_c, asymmetric, at
):
    # rates in MHz; N = 0 detects no photon, g = 0 gives the atom no share
    cavity = CavityParams(
        g_max=g * MHZ,
        kappa_t=kappa_t * MHZ,
        kappa_loss=kappa_loss * MHZ,
        delta_c=delta_c * MHZ,
        asymmetric_input=asymmetric,
    )
    photons = np.random.default_rng(at).uniform(0.0, 1e3, 33)
    photons[at] = n
    s = _snr_from_n(AtomParams(), cavity, n, TAU)
    assert type(s) is float
    assert _bits(s) == _bits(_snr_from_n(AtomParams(), cavity, photons, TAU)[at])


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=1e3),
    n=st.floats(min_value=0.0, max_value=1e9),
    detuning=st.floats(min_value=-1e4, max_value=1e4),
    kappa=st.floats(min_value=1e-2, max_value=1e3),
    n_out=PHOTONS,
    at=st.integers(0, 32),
)
@example(12.0, 1.0, 200.0, 3.0, 0.0, 0)
@example(0.0, 1.0, 200.0, 3.0, 25.0, 7)
def test_phase_and_snr_of_a_float_is_that_of_the_array_element(g, n, detuning, kappa, n_out, at):
    # rates in MHz; g = 0 has no light shift, N_out = 0 no signal
    atom = AtomParams(delta_a=detuning * MHZ)
    rng = np.random.default_rng(at)
    photons, outs = rng.uniform(0.0, 1e3, (2, 33))
    photons[at], outs[at] = n, n_out
    shift = _atom_response(n, g * MHZ, atom)[2]
    shifts = _atom_response(photons, g * MHZ, atom)[2]
    phi, s = _phase_and_snr(shift, kappa * MHZ, n_out)
    phis, ss = _phase_and_snr(shifts, kappa * MHZ, outs)
    assert type(phi) is float and type(s) is float
    assert _bits(phi) == _bits(phis[at]) and _bits(s) == _bits(ss[at])


def test_optima_and_report_snrs_are_floats(main_cavity):
    dispersive = AtomParams(delta_a=200 * GAMMA)
    for opt in (
        max_snr_over_pump(AtomParams(), main_cavity, TAU),
        max_snr_hom_over_pump(dispersive, main_cavity, TAU),
    ):
        assert isinstance(opt, PumpOptimum) and all(type(x) is float for x in opt)
    for opt in (
        optimal_kappa_t(AtomParams(), main_cavity, DRIVE),
        optimal_kappa_t_homodyne(dispersive, main_cavity, DRIVE),
    ):
        assert isinstance(opt, KappaTOptimum)
        assert all(type(x) is float for x in (opt.kappa_t, opt.snr, opt.j_in))
    report = intensity_report(AtomParams(), main_cavity, DRIVE)
    assert isinstance(report, ResonantReport) and type(report.snr) is float
    report = homodyne_report(dispersive, main_cavity, DRIVE)
    assert isinstance(report, HomodyneReport) and type(report.snr) is float


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=1e3),
    g_frac=st.floats(min_value=0.0, max_value=1.0),
    kappa_t=st.floats(min_value=1e-2, max_value=1e3),
    kappa_loss=st.floats(min_value=0.0, max_value=1e3),
    detuning=st.floats(min_value=10.0, max_value=1e3),
    j=st.floats(min_value=1e-3, max_value=1e9),
)
@example(12.0, 1.0, 0.59, 0.59, 200.0, 120.0)  # three roots at resonance
def test_np_float64_inputs_give_the_float_results_bit_for_bit(
    g, g_frac, kappa_t, kappa_loss, detuning, j
):
    # a pump grid of np.float64 (as np.logspace gives) and one of floats
    # score the same: np.float64 is a float and takes the math path
    cavity = CavityParams(g_max=g * MHZ, kappa_t=kappa_t * MHZ, kappa_loss=kappa_loss * MHZ)
    resonant, dispersive = AtomParams(), AtomParams(delta_a=detuning * GAMMA)

    def bits(values):
        return [_bits(x) for x in values]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = []
        for to in (float, np.float64):
            drive = DriveParams(j_in=to(j * 1e6), tau=TAU)
            g_local = to(g_frac * cavity.g_max)
            results.append((
                bits(stationary_photon_numbers(resonant, cavity, drive)),
                bits(stationary_photon_numbers(dispersive, cavity, drive, g_local=g_local)),
                bits(astuple(intensity_report(resonant, cavity, drive))),
                bits(astuple(homodyne_report(dispersive, cavity, drive))),
            ))
    assert results[0] == results[1]
