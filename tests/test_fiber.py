"""Fiber-gap cavity design calculator."""
import math
import random
import warnings
from dataclasses import replace

import pytest
from scipy.constants import c as C_LIGHT

from cavdet import (
    MHZ,
    UM,
    AtomParams,
    ConfigError,
    FiberCavityDesign,
    ParaxialWarning,
    derive,
    design_to_cavity,
    v_number,
)

L_REF = 10.4e-3  # an integer number of half wavelengths of the guided mode


@pytest.fixture
def design():
    return FiberCavityDesign(fiber_length=L_REF)


def _at_gap(design, half_gap):
    return derive(replace(design, half_gap=half_gap), AtomParams())


def _gaps(design, modes):
    """Resonant gap 2d of each mode index, from derive."""
    return {m: 2 * derive(design, AtomParams(), mode_index=m).half_gap for m in modes}


def test_v_number_and_waist(design):
    assert v_number(design) == pytest.approx(2.204582, rel=1e-4)
    assert derive(design, AtomParams()).waist == pytest.approx(2.924204 * UM, rel=1e-4)


def test_waist_over_radius_depends_only_on_v(design):
    scaled = FiberCavityDesign(
        fiber_length=L_REF, core_radius=2 * design.core_radius,
        wavelength0=2 * design.wavelength0,
    )
    assert v_number(scaled) == pytest.approx(v_number(design), rel=1e-12)
    atom = AtomParams()
    assert derive(scaled, atom).waist / scaled.core_radius == pytest.approx(
        derive(design, atom).waist / design.core_radius, rel=1e-12
    )


def test_multimode_fiber_warns():
    with pytest.warns(ParaxialWarning):
        fat = FiberCavityDesign(fiber_length=L_REF, core_radius=5e-6)
    assert v_number(fat) > 3.0


def test_multimode_design_warns_once_through_derive():
    # the V check runs once, when the design is built; derive does not repeat it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fat = FiberCavityDesign(fiber_length=L_REF, core_radius=10e-6)
        derive(fat, AtomParams(), mode_index=13)
    assert [w.category for w in caught] == [ParaxialWarning]


def test_gap_beam_at_the_rayleigh_range(design):
    # at d = z0 the gap beam has widened to w0*sqrt(2), so |Q| = w0/w(d) is
    # 1/sqrt(2), and its Gouy phase arctan(d/z0) is pi/4
    at_waist = derive(design, AtomParams())
    w0, z0 = at_waist.waist, at_waist.rayleigh
    assert z0 == pytest.approx(math.pi * w0**2 / design.wavelength0, rel=1e-12)
    with pytest.warns(ParaxialWarning, match="d/z0 = 1.00"):
        at_z0 = _at_gap(design, z0)
    k0 = 2 * math.pi / design.wavelength0
    assert at_z0.q_modulus == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert 2 * k0 * z0 - at_z0.q_phase == pytest.approx(math.pi / 4, rel=1e-12)


def test_resonant_gap_sizes(design):
    # the ladder: one derive per mode index
    gaps = _gaps(design, range(0, 20))
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
    phase = _fiber_phase_ref(design)
    for m in range(1, 20):
        derived = derive(design, AtomParams(), mode_index=m)
        d, z0 = derived.half_gap, derived.rayleigh
        # gaps invert the linearized phase budget exactly
        assert d * (2 * k0 - 1.0 / z0) + phase - m * math.pi == pytest.approx(0.0, abs=1e-8)
        # the full overlap phase closes the same budget up to the
        # third-order gap between atan(d/z0) and its linearization
        assert derived.q_phase == pytest.approx(m * math.pi - phase, abs=(d / z0) ** 3)


def _fiber_phase_ref(design):
    k1 = design.n_core * 2 * math.pi / design.wavelength0
    x = k1 * design.fiber_length
    return 2 * math.atan2(math.sin(x), design.n_core * math.cos(x))


def test_kappa_gap_values_and_scaling(design):
    atom = AtomParams()
    assert derive(design, atom, mode_index=13).kappa_gap == pytest.approx(
        6.236332 * MHZ, rel=1e-4
    )
    assert derive(design, atom, mode_index=4).kappa_gap == pytest.approx(
        0.5904220 * MHZ, rel=1e-4
    )
    # quadratic in the gap
    assert _at_gap(design, 2e-6).kappa_gap / _at_gap(design, 1e-6).kappa_gap == pytest.approx(
        4.0, rel=1e-12
    )
    assert derive(design, atom).kappa_gap == 0.0


def test_kappa_gap_warns_outside_perturbative_range(design):
    with pytest.warns(ParaxialWarning):
        _at_gap(design, 12e-6)


def test_coupling_and_mirror_rates(design):
    derived = derive(design, AtomParams())
    assert derived.g_max == pytest.approx(12.19964 * MHZ, rel=1e-4)
    assert derived.kappa_t == pytest.approx(7.646386 * MHZ, rel=1e-4)
    # exact closed form for the mirror rate
    expected = design.mirror_transmission * C_LIGHT / (4 * design.n_core * design.fiber_length)
    assert derived.kappa_t == pytest.approx(expected, rel=1e-12)


def test_kappa_t_linearity(design):
    atom = AtomParams()
    kappa_t = derive(design, atom).kappa_t
    double_t = FiberCavityDesign(fiber_length=L_REF, mirror_transmission=0.02)
    double_l = FiberCavityDesign(fiber_length=2 * L_REF)
    assert derive(double_t, atom).kappa_t == pytest.approx(2 * kappa_t, rel=1e-12)
    assert derive(double_l, atom).kappa_t == pytest.approx(0.5 * kappa_t, rel=1e-12)


def test_field_enhancement_extremes(design):
    # L_REF holds an integer number of guided half waves, so the end face
    # carries a field node and the gap field is enhanced by n exactly
    atom = AtomParams()
    assert derive(design, atom).gap_amplitude_ratio == pytest.approx(design.n_core, rel=1e-9)
    quarter = FiberCavityDesign(
        fiber_length=L_REF + design.wavelength0 / design.n_core / 4
    )
    assert derive(quarter, atom).gap_amplitude_ratio == pytest.approx(1.0, rel=1e-6)
    mid = FiberCavityDesign(fiber_length=L_REF + design.wavelength0 / design.n_core / 8)
    assert 1.0 < derive(mid, atom).gap_amplitude_ratio < design.n_core


def test_coupling_scales_as_root_length(design):
    # doubling to 20.8 mm keeps the node at the end face, so only the mode
    # volume grows: g drops by sqrt(2)
    atom = AtomParams()
    doubled = FiberCavityDesign(fiber_length=2 * L_REF)
    assert derive(design, atom).g_max / derive(doubled, atom).g_max == pytest.approx(
        math.sqrt(2), rel=1e-9
    )


def test_mode_match_identities(design):
    z0 = derive(design, AtomParams()).rayleigh
    k0 = 2 * math.pi / design.wavelength0
    for d in (0.5e-6, 2.54e-6, 8e-6):
        derived = _at_gap(design, d)
        assert derived.q_modulus == pytest.approx(1.0 / math.sqrt(1.0 + (d / z0) ** 2), rel=1e-12)
        assert derived.q_phase == pytest.approx(2 * k0 * d - math.atan(d / z0), rel=1e-12)
    derived = derive(design, AtomParams())
    assert (derived.q_modulus, derived.q_phase) == (1.0, 0.0)


def test_nearest_mode_index_roundtrip(design):
    gaps = _gaps(design, (4, 13, 25))
    for m in (4, 13, 25):
        assert _at_gap(design, gaps[m] / 2).mode_index == m
    # slightly off-resonant gaps still map back to the nearest index
    assert _at_gap(design, gaps[13] / 2 + 0.05e-6).mode_index == 13


def _derive_recording(design, atom, mode_index=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derived = derive(design, atom, mode_index=mode_index)
    return derived, [(w.category, str(w.message)) for w in caught]


def test_derive_by_index_and_by_gap_agree():
    # both routes through derive, over seeded single-mode designs: the gap
    # of mode m, given back as design.half_gap, reproduces every field and
    # any d/z0 warning
    rng = random.Random(7)
    atom = AtomParams()
    for _ in range(1000):
        n_core = rng.uniform(1.4, 2.0)
        n_clad = n_core * rng.uniform(0.99, 0.9999)
        wavelength0 = rng.uniform(400e-9, 1600e-9)
        v = rng.uniform(0.8, 2.99)
        design = FiberCavityDesign(
            fiber_length=rng.uniform(1e-3, 30e-3),
            core_radius=v * wavelength0 / (2 * math.pi * math.sqrt(n_core**2 - n_clad**2)),
            n_core=n_core,
            n_clad=n_clad,
            wavelength0=wavelength0,
            mirror_transmission=rng.uniform(1e-4, 0.1),
        )
        m = rng.randint(1, 59)
        if m * math.pi < _fiber_phase_ref(design):
            with pytest.raises(ConfigError, match="no non-negative gap"):
                derive(design, atom, mode_index=m)
            continue
        by_index, index_warnings = _derive_recording(design, atom, mode_index=m)
        by_gap, gap_warnings = _derive_recording(replace(design, half_gap=by_index.half_gap), atom)
        assert by_gap == by_index
        assert by_index.mode_index == m
        assert gap_warnings == index_warnings
        assert by_index.rayleigh == pytest.approx(
            math.pi * by_index.waist**2 / design.wavelength0, rel=1e-12
        )


def test_derive_rejects_impossible_mode(design):
    with pytest.raises(ConfigError):
        derive(design, AtomParams(), mode_index=-3)


def test_design_to_cavity_bridge(design):
    atom = AtomParams()
    resonant = replace(design, half_gap=derive(design, atom, mode_index=13).half_gap)
    extra = 7.65 * MHZ
    derived = derive(resonant, atom)
    cavity = design_to_cavity(derived, resonant.fiber_length, extra)
    assert cavity.g_max == derived.g_max
    assert cavity.kappa_t == derived.kappa_t
    assert cavity.kappa_loss == derived.kappa_gap + extra
    assert cavity.delta_c == 0.0
    assert cavity.waist == derived.waist
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
