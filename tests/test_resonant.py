"""Resonant-detection figures of merit: frozen pins, limits, optimizers."""
import math
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
    NotResonant,
    classify_coupling,
    cooperativity,
    fluorescence_reference,
    intensity_report,
    m_weak_limit,
    max_snr_over_pump,
    optimal_kappa_t,
    saturation_pump,
    snr_low_saturation,
    snr_resonant,
    snr_strong_limit,
    snr_weak_limit,
    stationary_photon_numbers,
)
from cavdet import resonant_detection, steady_state
from oracles import empty_photons, exact_intensity_snr

TAU = 10 * US


def test_single_pass_design_point(atom, narrow_cavity, drive2):
    rep = snr_resonant(atom, narrow_cavity, drive2)
    assert rep.n_out_empty == pytest.approx(5.0, rel=1e-12)
    assert rep.snr == pytest.approx(92.91444, rel=1e-4)
    assert rep.m_scattered == pytest.approx(0.4694693, rel=1e-4)
    assert rep.saturation < 0.01


def test_rejects_detuned_cavity(atom, main_cavity, drive2):
    detuned = CavityParams(
        g_max=main_cavity.g_max,
        kappa_t=main_cavity.kappa_t,
        kappa_loss=main_cavity.kappa_loss,
        delta_c=0.5 * MHZ,
    )
    with pytest.raises(NotResonant):
        snr_resonant(atom, detuned, drive2)
    with pytest.raises(NotResonant):
        snr_resonant(AtomParams(delta_a=atom.gamma), main_cavity, drive2)


def test_zero_cavity_detuning_is_optimal(atom, main_cavity, drive2):
    on = intensity_report(atom, main_cavity, drive2)
    for d_gamma in (1.0, 5.0):
        off = intensity_report(
            atom,
            CavityParams(
                g_max=main_cavity.g_max,
                kappa_t=main_cavity.kappa_t,
                kappa_loss=main_cavity.kappa_loss,
                delta_c=d_gamma * atom.gamma,
            ),
            drive2,
        )
        assert off.snr < on.snr


def test_low_saturation_form_is_exact_limit(atom, main_cavity, narrow_cavity):
    for cavity, j_per_us in [(main_cavity, 1e-3), (narrow_cavity, 1e-4)]:
        drive = DriveParams(j_per_us * 1e6, TAU)
        rep = snr_resonant(atom, cavity, drive)
        assert rep.saturation < 1e-5
        assert rep.snr == pytest.approx(snr_low_saturation(atom, cavity, drive), rel=1e-4)


def test_weak_coupling_asymptote(atom):
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=100 * MHZ, kappa_loss=4700 * MHZ)
    assert cooperativity(atom, cavity) == pytest.approx(0.01, rel=1e-12)
    drive = DriveParams(1e5, TAU)
    rep = snr_resonant(atom, cavity, drive)
    asym = snr_weak_limit(atom, cavity, drive)
    assert asym.regime == "weak"
    assert not asym.blended
    assert rep.snr == pytest.approx(asym.value, rel=0.05)
    assert rep.m_scattered == pytest.approx(m_weak_limit(asym.value, atom, cavity), rel=0.05)


def test_strong_coupling_weak_drive_asymptote(atom):
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=0.2 * MHZ, kappa_loss=0.2 * MHZ)
    assert cooperativity(atom, cavity) == pytest.approx(120.0, rel=1e-12)
    drive = DriveParams(1e4, TAU)
    rep = snr_resonant(atom, cavity, drive)
    asym = snr_weak_limit(atom, cavity, drive)
    assert asym.regime == "strong"
    assert rep.snr == pytest.approx(asym.value, rel=0.05)
    assert rep.m_scattered == pytest.approx(m_weak_limit(asym.value, atom, cavity), rel=0.05)


def test_strong_saturation_asymptote(atom, main_cavity):
    # deep saturation: SNR collapses onto Gamma*sqrt(tau/j) and the atom
    # scatters at its free-space ceiling M -> Gamma*tau
    ratios = []
    for j_per_us in (1e3, 1e4, 1e5):
        drive = DriveParams(j_per_us * 1e6, TAU)
        rep = snr_resonant(atom, main_cavity, drive)
        assert rep.saturation > 100
        ratios.append(rep.snr / snr_strong_limit(atom, drive))
        assert rep.m_scattered == pytest.approx(atom.gamma * TAU, rel=0.01)
    assert ratios[-1] == pytest.approx(1.0, rel=5e-3)
    # convergence from above as saturation grows
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_weak_limit_piecewise_factor(atom):
    drive = DriveParams(1e5, TAU)
    low_c = CavityParams(g_max=12 * MHZ, kappa_t=100 * MHZ, kappa_loss=4700 * MHZ)
    high_c = CavityParams(g_max=12 * MHZ, kappa_t=0.2 * MHZ, kappa_loss=0.2 * MHZ)
    for cavity, factor in [(low_c, 2.0), (high_c, 1.0)]:
        c = cooperativity(atom, cavity)
        expected = factor * math.sqrt(drive.j_in * TAU) * c * cavity.kappa_t / cavity.kappa
        assert snr_weak_limit(atom, cavity, drive).value == pytest.approx(expected, rel=1e-12)


def test_asymmetric_input_doubles_output(atom, main_cavity, drive2):
    both = CavityParams(
        g_max=main_cavity.g_max,
        kappa_t=main_cavity.kappa_t,
        kappa_loss=main_cavity.kappa_loss,
        asymmetric_input=True,
    )
    sym = snr_resonant(atom, main_cavity, drive2)
    asym = snr_resonant(atom, both, drive2)
    assert asym.n_out_empty == pytest.approx(2 * sym.n_out_empty, rel=1e-12)
    assert asym.n_out_atom == pytest.approx(2 * sym.n_out_atom, rel=1e-12)
    assert asym.snr == pytest.approx(math.sqrt(2) * sym.snr, rel=1e-12)
    assert asym.m_scattered == pytest.approx(sym.m_scattered, rel=1e-12)


def test_saturation_pump_identity(atom, main_cavity, narrow_cavity, high_loss_cavity):
    for cavity in (main_cavity, narrow_cavity, high_loss_cavity):
        j_sat = saturation_pump(atom, cavity)
        n_empty = empty_photons(cavity, DriveParams(j_sat, TAU))
        assert 2 * cavity.g_max**2 * n_empty / atom.gamma**2 == pytest.approx(1.0, rel=1e-12)


def test_classify_coupling_bands():
    assert classify_coupling(0.1) == ("weak", False)
    assert classify_coupling(1.0) == ("intermediate", True)
    assert classify_coupling(10.0) == ("strong", False)


def test_pump_scan_is_unimodal(atom, main_cavity):
    j_sat = saturation_pump(atom, main_cavity)
    grid = np.logspace(math.log10(j_sat) - 2, math.log10(j_sat) + 2, 200)
    snrs = np.array([snr_resonant(atom, main_cavity, DriveParams(j, TAU)).snr for j in grid])
    d = np.diff(snrs)
    assert np.sum(np.sign(d[:-1]) != np.sign(d[1:])) == 1


def test_max_snr_over_pump(atom, main_cavity):
    opt = max_snr_over_pump(atom, main_cavity, TAU)
    assert opt.snr == pytest.approx(34.0099, rel=1e-3)
    # no report is built for the optimum: the report at j_in solves its N
    # again and gives its S to rounding (test_optimizer_oracle checks 300 draws)
    report = snr_resonant(atom, main_cavity, DriveParams(opt.j_in, TAU))
    assert report.snr == pytest.approx(opt.snr, rel=1e-14, abs=0)
    # true local optimum in pump
    for f in (0.9, 1.1):
        neighbor = snr_resonant(atom, main_cavity, DriveParams(opt.j_in * f, TAU)).snr
        assert neighbor < opt.snr


def test_max_snr_broad_in_mirror_transmission(atom):
    # the pump-optimized SNR varies far less than kappa_t itself: a factor
    # of ten in transmission moves the optimum SNR by well under 50%
    peaks = {}
    for kt in (1.0, 3.0, 10.0):
        cavity = CavityParams(g_max=12 * MHZ, kappa_t=kt * MHZ, kappa_loss=6 * MHZ)
        peaks[kt] = max_snr_over_pump(atom, cavity, TAU).snr
    assert peaks[3.0] == pytest.approx(34.0099, rel=1e-3)
    assert max(peaks.values()) / min(peaks.values()) < 1.5


def test_optimal_kappa_t_interior(atom, drive2):
    template = CavityParams(g_max=12 * MHZ, kappa_t=1 * MHZ, kappa_loss=6 * MHZ)
    opt = optimal_kappa_t(atom, template, drive2)
    assert not opt.at_lower_bound and not opt.at_upper_bound
    assert opt.kappa_t == pytest.approx(2.5817 * MHZ, rel=1e-3)
    assert opt.snr == pytest.approx(34.137, rel=1e-3)
    for f in (0.8, 1.25):
        cavity = CavityParams(g_max=12 * MHZ, kappa_t=opt.kappa_t * f, kappa_loss=6 * MHZ)
        assert max_snr_over_pump(atom, cavity, TAU).snr <= opt.snr


def test_optimal_kappa_t_bound_flags(atom, drive2):
    template = CavityParams(g_max=12 * MHZ, kappa_t=1 * MHZ, kappa_loss=6 * MHZ)
    forced = optimal_kappa_t(atom, template, drive2, bounds=(12 * MHZ, 24 * MHZ))
    assert forced.at_lower_bound
    assert not forced.at_upper_bound
    assert forced.kappa_t <= 12 * MHZ * 1.05


def test_optimal_kappa_t_needs_bounds_without_loss(atom, drive2):
    lossless = CavityParams(g_max=12 * MHZ, kappa_t=1 * MHZ, kappa_loss=0.0)
    with pytest.raises(NoMaximumInBounds):
        optimal_kappa_t(atom, lossless, drive2)
    # explicit bounds make the lossless search well-posed
    ok = optimal_kappa_t(atom, lossless, drive2, bounds=(0.1 * MHZ, 10 * MHZ))
    assert 0.1 * MHZ <= ok.kappa_t <= 10 * MHZ


def test_fluorescence_reference():
    assert fluorescence_reference(0.05) == pytest.approx(20.0, rel=1e-12)
    assert fluorescence_reference(1.0) == 1.0
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            fluorescence_reference(bad)


def test_snr_zero_when_output_dark(atom, drive2):
    # overwhelming loss: both filled and empty outputs effectively zero
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=1e-6 * MHZ, kappa_loss=1e5 * MHZ)
    rep = snr_resonant(atom, cavity, DriveParams(1e-3, TAU))
    assert rep.snr >= 0.0
    assert rep.n_out_atom <= rep.n_out_empty


@pytest.mark.parametrize("asymmetric", [False, True])
def test_snr_is_zero_without_coupling(atom, main_cavity, asymmetric):
    # an uncoupled atom has no share of the damping or the shift: S is +0
    # exactly, not the rounding between the empty-cavity count and the
    # solver's root, and N_out, the root's count, is N_out,0 to rounding
    j = np.logspace(6, 7, 5)
    for cavity in (
        replace(main_cavity, g_max=0.0, asymmetric_input=asymmetric),
        replace(main_cavity, g_max=0.0, asymmetric_input=asymmetric, delta_c=0.7 * MHZ),
    ):
        n = steady_state._lower_branch(*steady_state._scaled(atom, cavity, cavity.g_max, j))
        assert resonant_detection._snr_from_n(atom, cavity, n, TAU).tolist() == [0.0] * j.size
        for x in j.tolist():
            rep = intensity_report(atom, cavity, DriveParams(x, TAU))
            assert rep.snr == 0.0 and math.copysign(1.0, rep.snr) == 1.0
            assert rep.n_out_atom == pytest.approx(rep.n_out_empty, rel=1e-15, abs=0)
            n = stationary_photon_numbers(atom, cavity, DriveParams(x, TAU))[0]
            assert resonant_detection._snr_from_n(atom, cavity, n, TAU) == rep.snr


@st.composite
def _couplings(draw):
    """(g, kappa_t, kappa_loss) in MHz at a cooperativity 1e-8 to 1e3, a pump, a mirror."""
    kappa_t, kappa_loss = (10 ** draw(st.floats(-1.0, 2.0)) for _ in range(2))
    c = 10 ** draw(st.floats(-8.0, 3.0))
    g = math.sqrt(c * (kappa_t + kappa_loss) * AtomParams().gamma / MHZ)
    return g, kappa_t, kappa_loss, 10 ** draw(st.floats(-3.0, 3.0)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=_couplings())
@example(case=(1.0, 1.45, 77.2, 1.0, False))  # C = 0.0042
def test_snr_is_the_exact_share_at_the_root(case):
    # S at the lower root against rational arithmetic at that float N: the
    # atom's share keeps every digit at every coupling, where a difference
    # of two counts would lose about -log10(C) of them
    g, kappa_t, kappa_loss, pump, asymmetric = case
    atom = AtomParams()
    cavity = CavityParams(
        g_max=g * MHZ, kappa_t=kappa_t * MHZ, kappa_loss=kappa_loss * MHZ, asymmetric_input=asymmetric
    )
    drive = DriveParams(j_in=pump * saturation_pump(atom, cavity), tau=TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = intensity_report(atom, cavity, drive)
        n = stationary_photon_numbers(atom, cavity, drive)[0]
    exact = exact_intensity_snr(atom, cavity, n, TAU)
    assert rep.snr == pytest.approx(exact, rel=1e-14, abs=0)
    batched = resonant_detection._snr_from_n(atom, cavity, np.array([n, 2.0 * n]), TAU)
    assert batched[0] == rep.snr
