"""Fiber-gap cavity design calculator."""
import math
import warnings

import pytest
from scipy.constants import c as C_LIGHT

from cavdet import (
    MHZ,
    UM,
    AtomParams,
    ConfigError,
    FiberCavityDesign,
    ParaxialWarning,
    coupling_g,
    derive,
    design_to_cavity,
    gap_amplitude_ratio,
    gaussian_beam_params,
    kappa_gap,
    kappa_t_mirror,
    mode_match,
    mode_waist,
    nearest_mode_index,
    resonant_gaps,
    v_number,
)

L_REF = 10.4e-3  # an integer number of half wavelengths of the guided mode


@pytest.fixture
def design():
    return FiberCavityDesign(fiber_length=L_REF)


def test_v_number_and_waist(design):
    assert v_number(design) == pytest.approx(2.204582, rel=1e-4)
    assert mode_waist(design) == pytest.approx(2.924204 * UM, rel=1e-4)


def test_waist_over_radius_depends_only_on_v(design):
    scaled = FiberCavityDesign(
        fiber_length=L_REF, core_radius=2 * design.core_radius,
        wavelength0=2 * design.wavelength0,
    )
    assert v_number(scaled) == pytest.approx(v_number(design), rel=1e-12)
    assert mode_waist(scaled) / scaled.core_radius == pytest.approx(
        mode_waist(design) / design.core_radius, rel=1e-12
    )


def test_multimode_fiber_warns():
    with pytest.warns(ParaxialWarning):
        fat = FiberCavityDesign(fiber_length=L_REF, core_radius=5e-6)
    assert v_number(fat) > 3.0


def test_multimode_design_warns_once_through_derive():
    # derive reaches the waist five times; the V check runs once, on the design
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fat = FiberCavityDesign(fiber_length=L_REF, core_radius=10e-6)
        derive(fat, AtomParams(), mode_index=13)
    assert [w.category for w in caught] == [ParaxialWarning]


def test_gaussian_beam_params():
    w0, lam = 3e-6, 780e-9
    w, curv, gouy, z0 = gaussian_beam_params(w0, lam, 0.0)
    assert z0 == pytest.approx(math.pi * w0**2 / lam, rel=1e-12)
    assert (w, curv, gouy) == (w0, 0.0, 0.0)
    w, curv, gouy, _ = gaussian_beam_params(w0, lam, z0)
    assert w == pytest.approx(w0 * math.sqrt(2), rel=1e-12)
    assert curv == pytest.approx(1.0 / (2 * z0), rel=1e-12)
    assert gouy == pytest.approx(math.pi / 4, rel=1e-12)


def test_resonant_gap_sizes(design):
    gaps = dict(resonant_gaps(design, range(0, 20)))
    assert gaps[13] == pytest.approx(5.079154 * UM, rel=1e-6)
    assert gaps[4] == pytest.approx(1.562817 * UM, rel=1e-6)
    # consecutive gaps are spaced by half a wavelength, stretched by the
    # first-order Gouy correction
    spacings = [gaps[m + 1] - gaps[m] for m in range(4, 14)]
    for s in spacings:
        assert s == pytest.approx(spacings[0], rel=1e-9)
        assert s == pytest.approx(design.wavelength0 / 2, rel=5e-3)
        assert s > design.wavelength0 / 2


def test_resonance_condition_residual(design):
    k0 = 2 * math.pi / design.wavelength0
    _, _, _, z0 = gaussian_beam_params(mode_waist(design), design.wavelength0, 0.0)
    phase = _fiber_phase_ref(design)
    for m, gap in resonant_gaps(design, range(1, 20)):
        d = gap / 2
        # gaps invert the linearized phase budget exactly
        assert d * (2 * k0 - 1.0 / z0) + phase - m * math.pi == pytest.approx(0.0, abs=1e-8)
        # the full overlap phase closes the same budget up to the
        # third-order gap between atan(d/z0) and its linearization
        _, q_phase = mode_match(design, d)
        assert q_phase == pytest.approx(m * math.pi - phase, abs=(d / z0) ** 3)


def _fiber_phase_ref(design):
    k1 = design.index * 2 * math.pi / design.wavelength0
    x = k1 * design.fiber_length
    return 2 * math.atan2(math.sin(x), design.index * math.cos(x))


def test_kappa_gap_values_and_scaling(design):
    gaps = dict(resonant_gaps(design, range(0, 20)))
    assert kappa_gap(design, gaps[13] / 2) == pytest.approx(6.236332 * MHZ, rel=1e-4)
    assert kappa_gap(design, gaps[4] / 2) == pytest.approx(0.5904220 * MHZ, rel=1e-4)
    # quadratic in the gap
    assert kappa_gap(design, 2e-6) / kappa_gap(design, 1e-6) == pytest.approx(4.0, rel=1e-12)
    assert kappa_gap(design, 0.0) == 0.0


def test_kappa_gap_warns_outside_perturbative_range(design):
    with pytest.warns(ParaxialWarning):
        kappa_gap(design, 12e-6)


def test_coupling_and_mirror_rates(design):
    atom = AtomParams()
    assert coupling_g(design, atom) == pytest.approx(12.19964 * MHZ, rel=1e-4)
    assert kappa_t_mirror(design) == pytest.approx(7.646386 * MHZ, rel=1e-4)
    # exact closed form for the mirror rate
    expected = design.mirror_transmission * C_LIGHT / (4 * design.index * design.fiber_length)
    assert kappa_t_mirror(design) == pytest.approx(expected, rel=1e-12)


def test_kappa_t_linearity(design):
    double_t = FiberCavityDesign(fiber_length=L_REF, mirror_transmission=0.02)
    double_l = FiberCavityDesign(fiber_length=2 * L_REF)
    assert kappa_t_mirror(double_t) == pytest.approx(2 * kappa_t_mirror(design), rel=1e-12)
    assert kappa_t_mirror(double_l) == pytest.approx(0.5 * kappa_t_mirror(design), rel=1e-12)


def test_field_enhancement_extremes(design):
    # L_REF holds an integer number of guided half waves, so the end face
    # carries a field node and the gap field is enhanced by n exactly
    assert gap_amplitude_ratio(design) == pytest.approx(design.n_core, rel=1e-9)
    quarter = FiberCavityDesign(
        fiber_length=L_REF + design.wavelength0 / design.n_core / 4
    )
    assert gap_amplitude_ratio(quarter) == pytest.approx(1.0, rel=1e-6)
    mid = FiberCavityDesign(fiber_length=L_REF + design.wavelength0 / design.n_core / 8)
    assert 1.0 < gap_amplitude_ratio(mid) < design.n_core


def test_coupling_scales_as_root_length(design):
    # doubling to 20.8 mm keeps the node at the end face, so only the mode
    # volume grows: g drops by sqrt(2)
    atom = AtomParams()
    doubled = FiberCavityDesign(fiber_length=2 * L_REF)
    assert coupling_g(design, atom) / coupling_g(doubled, atom) == pytest.approx(
        math.sqrt(2), rel=1e-9
    )


def test_mode_match_identities(design):
    w0 = mode_waist(design)
    _, _, _, z0 = gaussian_beam_params(w0, design.wavelength0, 0.0)
    k0 = 2 * math.pi / design.wavelength0
    for d in (0.5e-6, 2.54e-6, 8e-6):
        q_mod, q_phase = mode_match(design, d)
        assert q_mod == pytest.approx(1.0 / math.sqrt(1.0 + (d / z0) ** 2), rel=1e-12)
        assert q_phase == pytest.approx(2 * k0 * d - math.atan(d / z0), rel=1e-12)
    assert mode_match(design, 0.0) == (1.0, 0.0)


def test_nearest_mode_index_roundtrip(design):
    gaps = dict(resonant_gaps(design, range(0, 30)))
    for m in (4, 13, 25):
        assert nearest_mode_index(design, gaps[m] / 2) == m
    # slightly off-resonant gaps still map back to the nearest index
    assert nearest_mode_index(design, gaps[13] / 2 + 0.05e-6) == 13


def test_derive_by_index_and_by_gap_agree(design):
    atom = AtomParams()
    by_index = derive(design, atom, mode_index=13)
    explicit = FiberCavityDesign(fiber_length=L_REF, half_gap=by_index.half_gap)
    by_gap = derive(explicit, atom)
    assert by_gap.mode_index == 13
    assert by_gap.half_gap == by_index.half_gap
    assert by_gap.kappa_gap == by_index.kappa_gap
    assert by_gap.q_modulus == by_index.q_modulus
    assert by_index.waist == mode_waist(design)
    assert by_index.rayleigh == pytest.approx(
        math.pi * by_index.waist**2 / design.wavelength0, rel=1e-12
    )


def test_derive_rejects_impossible_mode(design):
    with pytest.raises(ConfigError):
        derive(design, AtomParams(), mode_index=-3)


def test_design_to_cavity_bridge(design):
    atom = AtomParams()
    gaps = dict(resonant_gaps(design, range(0, 20)))
    resonant = FiberCavityDesign(fiber_length=L_REF, half_gap=gaps[13] / 2)
    extra = 7.65 * MHZ
    cavity = design_to_cavity(resonant, atom, extra_loss=extra)
    assert cavity.g_max == coupling_g(resonant, atom)
    assert cavity.kappa_t == kappa_t_mirror(resonant)
    assert cavity.kappa_loss == pytest.approx(kappa_gap(resonant) + extra, rel=1e-12)
    assert cavity.delta_c == 0.0
    assert cavity.waist == mode_waist(resonant)
    assert cavity.length == resonant.fiber_length


def test_design_validation():
    with pytest.raises(ConfigError):
        FiberCavityDesign(fiber_length=L_REF, n_core=1.496, n_clad=1.496)
    with pytest.raises(ConfigError):
        FiberCavityDesign(fiber_length=L_REF, mirror_transmission=0.0)
    with pytest.raises(ConfigError):
        FiberCavityDesign(fiber_length=L_REF, half_gap=-1e-6)
    with pytest.raises(ConfigError):
        FiberCavityDesign(fiber_length=0.0)
    with_n_eff = FiberCavityDesign(fiber_length=L_REF, n_eff=1.497)
    assert with_n_eff.index == 1.497
    assert FiberCavityDesign(fiber_length=L_REF).index == 1.5
