"""Position-averaged signal and momentum-diffusion back-action."""
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import hbar as HBAR

from cavdet import (
    MHZ,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    NotResonant,
    SaturationWarning,
    cooperativity,
    intensity_report,
    load_config,
    saturation_pump,
    snr_low_saturation,
    solve_stationary,
    spatial_averages,
)
from cavdet import motion
from oracles import diffusion_coefficient

TAU = 10 * US


@pytest.fixture
def fig_cavity():
    return CavityParams(g_max=12 * MHZ, kappa_t=11 * MHZ, kappa_loss=22 * MHZ)


def test_averaged_design_point(atom, fig_cavity):
    with pytest.warns(SaturationWarning):
        av = spatial_averages(atom, fig_cavity, DriveParams(20e6, TAU))
    assert av.s_bar == pytest.approx(5.133539, rel=1e-4)
    assert av.m_bar == pytest.approx(25.21619, rel=1e-4)
    assert av.delta_p == pytest.approx(9.333299, rel=1e-4)
    assert av.delta_z == pytest.approx(317.2266e-9, rel=1e-4)


def test_averaged_quantities_are_consistent(atom, fig_cavity):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        av = spatial_averages(atom, fig_cavity, DriveParams(20e6, TAU))
    c = cooperativity(atom, fig_cavity)
    k = atom.k
    assert av.delta_p**2 == pytest.approx(2 * av.m_bar * (1 + c / 2), rel=1e-12)
    assert av.delta_z == pytest.approx(
        (av.delta_p * HBAR * k / atom.mass) * TAU / math.sqrt(3), rel=1e-8
    )
    assert av.d_bar == pytest.approx(
        ((HBAR * k) ** 2 / TAU) * (1 + c / 2) * av.m_bar, rel=1e-8
    )


@pytest.mark.parametrize("cavity", ["main_cavity", "transit_cavity", "narrow_cavity"])
def test_d_bar_is_the_axial_mean_of_d(atom, cavity, request):
    # <(Gamma*kappa + g^2*cos^2 kz)^-2> over a period is
    # (2*Gamma*kappa + g^2)/(2*(Gamma*kappa)^1.5*(Gamma*kappa + g^2)^1.5); a
    # uniform grid over one period of a smooth periodic function converges
    # far below the tolerance
    cavity = request.getfixturevalue(cavity)
    drive = DriveParams(1e-3 * saturation_pump(atom, cavity), TAU)
    z = 0.5 * atom.wavelength * np.arange(20_000) / 20_000
    d_bar = spatial_averages(atom, cavity, drive).d_bar
    assert diffusion_coefficient(atom, cavity, drive, z).mean() == pytest.approx(d_bar, rel=1e-12)


@pytest.mark.parametrize("asymmetric_input", [False, True])
def test_s_bar_is_the_axial_mean_of_s(atom, transit_cavity, asymmetric_input):
    # S at each axial position is the report's, with g_max*|cos kz| as the
    # local coupling; a uniform grid over one period of the standing wave
    cavity = replace(transit_cavity, asymmetric_input=asymmetric_input)
    drive = DriveParams(1e4, TAU)
    z = 0.5 * atom.wavelength * np.arange(400) / 400
    s = [
        intensity_report(
            atom, replace(cavity, g_max=cavity.g_max * abs(math.cos(atom.k * zi))), drive
        ).snr
        for zi in z
    ]
    assert np.mean(s) == pytest.approx(spatial_averages(atom, cavity, drive).s_bar, rel=1e-3)


def test_no_warning_at_low_pump(atom, fig_cavity, monkeypatch):
    # N <= j_in*kappa_t/kappa^2 keeps the saturation below the edge here,
    # so the check needs no stationary solve
    solves = []
    monkeypatch.setattr(motion, "stationary_photon_numbers", lambda *a: solves.append(a))
    drive = DriveParams(1e4, TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spatial_averages(atom, fig_cavity, drive)
        diffusion_coefficient(atom, fig_cavity, drive, 0.0)
    assert solves == []


def test_saturation_warning_on_the_transit_scan():
    # the motion-averages grid of configs/transit.json: each point warns
    # exactly when its solved antinode saturation exceeds the edge
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "transit.json")
    atom, cavity = cfg.atom, cfg.cavity
    messages = []
    for j in cfg.drive.j_in * np.logspace(-1.0, 1.0, 41):
        drive = DriveParams(j, cfg.drive.tau)
        n = solve_stationary(atom, cavity, drive).n_photons
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spatial_averages(atom, cavity, drive)
        saturated = 2.0 * cavity.g_max**2 * n / atom.gamma**2 > motion.SATURATION_MAX
        assert [w.category for w in caught] == [SaturationWarning] * saturated
        messages += [str(w.message) for w in caught]
    assert len(messages) == 23
    assert messages[0].startswith("antinode saturation 0.112 exceeds 0.1")


@pytest.mark.parametrize("ratio, warns", [(0.99, False), (1.01, True)])
def test_saturation_warning_at_the_edge(atom, ratio, warns):
    # at C = 1e-3 the atom lowers N only 0.4 % below j_in*kappa_t/kappa^2,
    # whose saturation is ratio*SATURATION_MAX here
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=100 * MHZ, kappa_loss=47900 * MHZ)
    n_max = ratio * motion.SATURATION_MAX * atom.gamma**2 / (2.0 * cavity.g_max**2)
    drive = DriveParams(n_max * cavity.kappa**2 / cavity.kappa_t, TAU)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spatial_averages(atom, cavity, drive)
    assert [w.category for w in caught] == [SaturationWarning] * warns


def test_requires_resonance(atom, fig_cavity):
    detuned_atom = AtomParams(delta_a=atom.gamma)
    with pytest.raises(NotResonant):
        spatial_averages(detuned_atom, fig_cavity, DriveParams(1e4, TAU))
    with pytest.raises(NotResonant):
        diffusion_coefficient(detuned_atom, fig_cavity, DriveParams(1e4, TAU), 0.0)


@pytest.mark.parametrize(
    "kappa_t_mhz,kappa_loss_mhz",
    [(100.0, 47900.0), (0.024, 0.024)],  # C = 1e-3 and C = 1e3
)
def test_average_halves_peak_snr_in_both_limits(atom, kappa_t_mhz, kappa_loss_mhz):
    # averaging |cos kz| over the standing wave costs exactly a factor of
    # two in SNR in the weak and strong coupling limits alike
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=kappa_t_mhz * MHZ, kappa_loss=kappa_loss_mhz * MHZ)
    drive = DriveParams(1e4, TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        av = spatial_averages(atom, cavity, drive)
    assert av.s_bar / snr_low_saturation(atom, cavity, drive) == pytest.approx(0.5, rel=0.01)


def test_scattering_budget_peaks_at_c_of_two(atom):
    kappa = 9 * MHZ

    def m_bar_at(c):
        g = math.sqrt(c * kappa * atom.gamma)
        cavity = CavityParams(g_max=g, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)
        return spatial_averages(atom, cavity, DriveParams(1e4, TAU)).m_bar

    assert m_bar_at(2.0) > m_bar_at(1.5)
    assert m_bar_at(2.0) > m_bar_at(2.5)


def test_diffusion_largest_at_node(atom, main_cavity):
    drive = DriveParams(1e4, TAU)
    lam = atom.wavelength
    d_anti = diffusion_coefficient(atom, main_cavity, drive, 0.0)
    d_node = diffusion_coefficient(atom, main_cavity, drive, lam / 4)
    assert d_node > d_anti
    z = np.linspace(0.0, lam / 2, 101)
    d_z = diffusion_coefficient(atom, main_cavity, drive, z)
    assert d_z.shape == z.shape
    assert z[np.argmax(d_z)] == pytest.approx(lam / 4, rel=1e-12)
    assert np.isscalar(d_anti) or np.ndim(d_anti) == 0


def test_weak_pump_diffusion_matches_scattering(atom, main_cavity):
    # far below saturation every scattered photon carries one recoil unit
    # of variance: 2*D(antinode)*tau = (hbar k)^2 * M
    drive = DriveParams(saturation_pump(atom, main_cavity) * 1e-8, TAU)
    d0 = diffusion_coefficient(atom, main_cavity, drive, 0.0)
    state = solve_stationary(atom, main_cavity, drive)
    m = 2 * atom.gamma * state.rho11 * TAU
    assert 2 * d0 * TAU == pytest.approx((HBAR * atom.k) ** 2 * m, rel=1e-6)
