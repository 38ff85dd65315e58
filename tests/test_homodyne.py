"""Dispersive (homodyne) detection: pins, limits, phase conventions."""
import math
import warnings
from dataclasses import replace

import pytest

from cavdet import (
    MHZ,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    NotDispersive,
    SmallDetuningWarning,
    dispersive_saturation_pump,
    homodyne_report,
    m_homodyne,
    max_snr_hom_over_pump,
    n_out_required,
    optimal_kappa_t_homodyne,
    snr_homodyne_strong_limit,
    snr_homodyne_weak_limit,
)
from oracles import empty_photons

TAU = 10 * US
GAMMA = AtomParams().gamma


@pytest.fixture
def atom200():
    return AtomParams(delta_a=200 * GAMMA)


def test_dispersive_design_point(atom200, narrow_cavity):
    rep = homodyne_report(atom200, narrow_cavity, DriveParams(50e6, TAU))
    assert rep.n_out_empty == pytest.approx(125.0, rel=1e-12)
    assert rep.snr == pytest.approx(4.410817, rel=1e-4)
    assert rep.m_scattered == pytest.approx(0.4861573, rel=1e-4)
    assert rep.phase_shift == pytest.approx(-0.2028602, rel=1e-4)
    assert rep.small_angle_valid


def test_requires_resonant_pump(atom200, narrow_cavity):
    detuned = CavityParams(
        g_max=narrow_cavity.g_max,
        kappa_t=narrow_cavity.kappa_t,
        kappa_loss=narrow_cavity.kappa_loss,
        delta_c=0.5 * MHZ,
    )
    with pytest.raises(NotDispersive):
        homodyne_report(atom200, detuned, DriveParams(50e6, TAU))
    with pytest.raises(NotDispersive, match="delta_c"):
        max_snr_hom_over_pump(atom200, detuned, TAU)
    with pytest.raises(NotDispersive, match="delta_c"):
        optimal_kappa_t_homodyne(atom200, detuned, DriveParams(50e6, TAU))


@pytest.mark.parametrize("delta_a_gamma", [0.0, 1e-9, -1e-10])
def test_requires_detuned_atom(narrow_cavity, delta_a_gamma):
    # on atomic resonance the light shift, the phase and S_hom vanish
    atom = AtomParams(delta_a=delta_a_gamma * GAMMA)
    with pytest.raises(NotDispersive, match="delta_a"):
        homodyne_report(atom, narrow_cavity, DriveParams(50e6, TAU))
    with pytest.raises(NotDispersive, match="delta_a"):
        max_snr_hom_over_pump(atom, narrow_cavity, TAU)
    with pytest.raises(NotDispersive, match="delta_a"):
        optimal_kappa_t_homodyne(atom, narrow_cavity, DriveParams(50e6, TAU))
    # just outside the tolerance the report runs, with its small-detuning warning
    with pytest.warns(SmallDetuningWarning):
        atom = AtomParams(delta_a=2e-9 * GAMMA)
        rep = homodyne_report(atom, narrow_cavity, DriveParams(50e6, TAU))
    assert 0.0 < rep.snr < 1e-6


def test_small_detuning_warns(narrow_cavity):
    with pytest.warns(SmallDetuningWarning):
        homodyne_report(AtomParams(delta_a=5 * GAMMA), narrow_cavity, DriveParams(1e6, TAU))


def test_large_detuning_silent(atom200, narrow_cavity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        homodyne_report(atom200, narrow_cavity, DriveParams(50e6, TAU))


def test_phase_shift_low_saturation_form(atom200, narrow_cavity):
    rep = homodyne_report(atom200, narrow_cavity, DriveParams(5e5, TAU))
    expected = -narrow_cavity.g_max**2 / (atom200.delta_a * narrow_cavity.kappa)
    assert rep.phase_shift == pytest.approx(expected, rel=2e-3)


def test_phase_shift_sign_tracks_detuning(narrow_cavity):
    drive = DriveParams(5e5, TAU)
    red = homodyne_report(AtomParams(delta_a=200 * GAMMA), narrow_cavity, drive)
    blue = homodyne_report(AtomParams(delta_a=-200 * GAMMA), narrow_cavity, drive)
    assert red.phase_shift < 0 < blue.phase_shift
    assert blue.phase_shift == pytest.approx(-red.phase_shift, rel=1e-12)


def test_weak_dispersive_limit(atom200, narrow_cavity):
    for j_per_us in (0.5, 50.0):
        drive = DriveParams(j_per_us * 1e6, TAU)
        rep = homodyne_report(atom200, narrow_cavity, drive)
        assert rep.snr == pytest.approx(
            snr_homodyne_weak_limit(atom200, narrow_cavity, drive), rel=0.05
        )


def test_strong_dispersive_limit(narrow_cavity):
    # deep saturation of the dispersive transition: S -> |delta_a|*sqrt(tau/j)
    atom = AtomParams(delta_a=50 * GAMMA)
    ratios = []
    for j_per_us in (1e4, 1e5):
        drive = DriveParams(j_per_us * 1e6, TAU)
        rep = homodyne_report(atom, narrow_cavity, drive)
        ratios.append(rep.snr / snr_homodyne_strong_limit(atom, drive))
    assert ratios[-1] == pytest.approx(1.0, rel=0.025)
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_photon_budget_identities(narrow_cavity):
    # the low-saturation inversions reproduce the full solve up to the
    # explicit small-angle factor (phi/sin phi)^2
    drive = DriveParams(5e5, TAU)
    for da_gamma, tol in [(200.0, 2e-3), (2000.0, 2e-3)]:
        atom = AtomParams(delta_a=da_gamma * GAMMA)
        rep = homodyne_report(atom, narrow_cavity, drive)
        corr = (rep.phase_shift / math.sin(rep.phase_shift)) ** 2
        assert rep.m_scattered / m_homodyne(rep.snr, atom, narrow_cavity) == pytest.approx(
            corr, rel=tol
        )
        assert rep.n_out / n_out_required(rep.snr, atom, narrow_cavity) == pytest.approx(
            corr, rel=tol
        )


def test_small_angle_flag(narrow_cavity):
    big_phase = homodyne_report(
        AtomParams(delta_a=50 * GAMMA), narrow_cavity, DriveParams(1e5, TAU)
    )
    assert not big_phase.small_angle_valid
    assert abs(big_phase.phase_shift) > 0.3


def test_dispersive_saturation_pump_identity(atom200, narrow_cavity):
    j_sat = dispersive_saturation_pump(atom200, narrow_cavity)
    n_empty = empty_photons(narrow_cavity, DriveParams(j_sat, TAU))
    s = 2 * narrow_cavity.g_max**2 * n_empty / (atom200.delta_a**2 + GAMMA**2)
    assert s == pytest.approx(1.0, rel=1e-12)


def test_max_snr_hom_over_pump(atom200, narrow_cavity):
    j_opt, s_opt = max_snr_hom_over_pump(atom200, narrow_cavity, TAU)
    assert s_opt == pytest.approx(43.707, rel=1e-3)
    for f in (0.9, 1.1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            neighbor = homodyne_report(atom200, narrow_cavity, DriveParams(j_opt * f, TAU)).snr
        assert neighbor < s_opt


def test_optimal_kappa_t_homodyne_matches_loss(atom200, narrow_cavity):
    # dispersive readout is impedance matched: best mirror transmission
    # sits at the internal loss rate
    opt = optimal_kappa_t_homodyne(atom200, narrow_cavity, DriveParams(50e6, TAU))
    assert not opt.at_lower_bound and not opt.at_upper_bound
    assert opt.kappa_t == pytest.approx(narrow_cavity.kappa_loss, rel=0.05)
    assert opt.snr == pytest.approx(43.707, rel=1e-3)
    for f in (0.8, 1.25):
        cavity = CavityParams(
            g_max=narrow_cavity.g_max,
            kappa_t=opt.kappa_t * f,
            kappa_loss=narrow_cavity.kappa_loss,
        )
        assert max_snr_hom_over_pump(atom200, cavity, TAU)[1] <= opt.snr


@pytest.mark.parametrize("asymmetric", [False, True])
def test_snr_hom_is_zero_without_coupling(atom200, narrow_cavity, asymmetric):
    # an uncoupled atom shifts nothing: phi is +0, not -0, and S is 0;
    # N_out, the lower root's count, is N_out,0 to rounding
    cavity = replace(narrow_cavity, g_max=0.0, asymmetric_input=asymmetric)
    for j in (1e5, 3e6, 2e8):
        rep = homodyne_report(atom200, cavity, DriveParams(j, TAU))
        assert rep.n_out == pytest.approx(rep.n_out_empty, rel=1e-15, abs=0)
        assert rep.snr == 0.0 and rep.phase_shift == 0.0
        assert math.copysign(1.0, rep.phase_shift) == 1.0
