import dataclasses
import math

import pytest

from cavdet import (
    KHZ,
    MHZ,
    AtomParams,
    CavityParams,
    ConfigError,
    DriveParams,
    FiberCavityDesign,
    GuideParams,
    SimConfig,
    ParaxialWarning,
    atomic_cross_section,
    cooperativity,
    geometric_cooperativity,
    loss_fraction_to_rate,
    round_trips_and_finesse,
)
from cavdet.resonant_detection import _empty_photons
from cavdet.steady_state import _scaled


def test_unit_constants():
    assert MHZ == 2 * math.pi * 1e6
    assert KHZ == 2 * math.pi * 1e3


# the required arguments of each parameter type; every other field has a default
_PARAM_BASES = {
    AtomParams: {},
    CavityParams: {"g_max": 12 * MHZ, "kappa_t": 3 * MHZ},
    DriveParams: {"j_in": 2e6, "tau": 10e-6},
    GuideParams: {},
    SimConfig: {},
    FiberCavityDesign: {"fiber_length": 10.4e-3},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name",
    [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in _PARAM_BASES
        for f in dataclasses.fields(cls)
        if isinstance(getattr(cls(**_PARAM_BASES[cls]), f.name), float)
    ],
)
def test_non_finite_float_fields_rejected(cls, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        cls(**{**_PARAM_BASES[cls], name: value})


def test_atom_defaults_and_wavenumber():
    a = AtomParams()
    assert a.gamma == 3 * MHZ
    assert a.delta_a == 0.0
    assert a.wavelength == pytest.approx(780e-9)
    assert a.k == pytest.approx(2 * math.pi / 780e-9, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"wavelength": 0.0},
        {"mass": -1e-25},
    ],
)
def test_atom_validation(kwargs):
    with pytest.raises(ConfigError):
        AtomParams(**kwargs)


def test_cavity_kappa_is_sum(main_cavity):
    assert main_cavity.kappa == main_cavity.kappa_t + main_cavity.kappa_loss
    assert main_cavity.kappa == pytest.approx(9 * MHZ, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"g_max": -1.0, "kappa_t": 1.0},
        {"g_max": 1.0, "kappa_t": 0.0},
        {"g_max": 1.0, "kappa_t": 1.0, "kappa_loss": -1.0},
        {"g_max": 1.0, "kappa_t": 1.0, "waist": 0.0},
        {"g_max": 1.0, "kappa_t": 1.0, "length": -1.0},
    ],
)
def test_cavity_validation(kwargs):
    with pytest.raises(ConfigError):
        CavityParams(**kwargs)


def test_drive_validation():
    with pytest.raises(ConfigError):
        DriveParams(j_in=-1.0, tau=1.0)
    with pytest.raises(ConfigError):
        DriveParams(j_in=1.0, tau=0.0)
    assert DriveParams(j_in=0.0, tau=1.0).j_in == 0.0


def test_pump_amplitude(atom, main_cavity):
    # eta^2 = j_in*kappa_t enters the solver, and eta the empty cavity's field
    d = DriveParams(j_in=2e6, tau=1e-5)
    e2 = _scaled(atom, main_cavity, main_cavity.g_max, d.j_in)[1]
    assert e2 * atom.gamma**2 == pytest.approx(2e6 * main_cavity.kappa_t, rel=1e-12)
    n_empty = _empty_photons(main_cavity, d.j_in)
    assert n_empty * main_cavity.kappa**2 == pytest.approx(2e6 * main_cavity.kappa_t, rel=1e-12)


def test_cooperativity_values(atom, main_cavity, narrow_cavity):
    assert cooperativity(atom, main_cavity) == pytest.approx(16.0 / 3.0, rel=1e-12)
    assert cooperativity(atom, narrow_cavity) == pytest.approx(
        144.0 / (1.18 * 3.0), rel=1e-12
    )


def test_atomic_cross_section():
    lam = 780e-9
    assert atomic_cross_section(lam) == pytest.approx(3 * lam**2 / (2 * math.pi), rel=1e-12)


def test_geometric_cooperativity_scaling():
    lam = 780e-9
    area = math.pi * (3e-6) ** 2
    c1 = geometric_cooperativity(lam, area, 100.0)
    assert c1 == pytest.approx(2 * atomic_cross_section(lam) / area * 100.0, rel=1e-12)
    # doubling the round trips doubles the estimate
    assert geometric_cooperativity(lam, area, 200.0) == pytest.approx(2 * c1, rel=1e-12)


def test_geometric_cooperativity_warns_when_too_focused():
    lam = 780e-9
    with pytest.warns(ParaxialWarning):
        geometric_cooperativity(lam, 2.0 * atomic_cross_section(lam), 10.0)


def test_round_trips_and_finesse(main_cavity):
    n_rt, finesse = round_trips_and_finesse(main_cavity)
    assert finesse == pytest.approx(4 * math.pi * n_rt, rel=1e-12)
    # c/(4*L*kappa) at L = 10.4 mm, kappa = 2*pi*9 MHz
    assert n_rt == pytest.approx(127.44, rel=1e-3)
    assert finesse == pytest.approx(1601.5, rel=1e-3)


def test_loss_fraction_to_rate_linear():
    r1 = loss_fraction_to_rate(0.01, 10.4e-3, 1.5)
    assert loss_fraction_to_rate(0.02, 10.4e-3, 1.5) == pytest.approx(2 * r1, rel=1e-12)
    assert loss_fraction_to_rate(0.0, 10.4e-3, 1.5) == 0.0


def test_loss_fraction_to_rate_validation():
    with pytest.raises(ValueError):
        loss_fraction_to_rate(-0.1, 1e-2, 1.5)
    with pytest.raises(ValueError):
        loss_fraction_to_rate(1.0, 1e-2, 1.5)
    with pytest.raises(ValueError):
        loss_fraction_to_rate(0.1, 0.0, 1.5)


def test_loss_fractions_reproduce_loss_rate_ladder():
    # the four loss-rate settings used for the lossy-cavity curves are, to a
    # few percent, the fiber-gap loss 6.24 MHz plus 1/2/4/10% per round trip
    # of 1.5-index fiber at L = 10.4 mm
    base = 6.236 * MHZ
    targets = [14.0, 22.0, 38.0, 86.0]
    for p, target in zip([0.01, 0.02, 0.04, 0.10], targets):
        total = base + loss_fraction_to_rate(p, 10.4e-3, 1.5)
        assert total / MHZ == pytest.approx(target, rel=0.05)
