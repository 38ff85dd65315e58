"""Transit Monte Carlo: kinematics, click statistics, detection, determinism."""
import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import k as K_B
from scipy.stats import kstest

from cavdet import (
    MHZ,
    UM,
    US,
    AtomParams,
    CavityParams,
    ConfigError,
    DriveParams,
    GuideParams,
    NoPhysicalRoot,
    QuasiStaticViolated,
    SimConfig,
    StepTooLarge,
    dark_rates,
    detect_events,
    local_coupling,
    run_ensemble,
    sample_initial,
    simulate_block,
    solve_stationary,
    stationary_photon_numbers,
    trajectory_rng,
    windowed_counts,
)
from cavdet import steady_state, trajectory_sim
from cavdet.trajectory_sim import _poisson_times
from oracles import empty_photons, first_detection, lower_branch, record

US_ = 1e-6


@pytest.fixture
def transit_drive():
    return DriveParams(10e6, 10 * US)


@pytest.fixture
def guide():
    return GuideParams()


# --- initial conditions -------------------------------------------------------


def test_sample_initial_statistics(guide, atom, transit_cavity):
    rng = np.random.default_rng(12345)
    n = 100_000
    pos = np.empty((n, 3))
    vel = np.empty((n, 3))
    for i in range(n):
        pos[i], vel[i] = sample_initial(guide, atom, transit_cavity, rng)
    sig_v = math.sqrt(K_B * guide.temperature / atom.mass)
    sig_x = sig_v / guide.trap_omega
    assert np.all(pos[:, 1] == -3.0 * transit_cavity.waist)
    assert pos[:, 0].std() == pytest.approx(sig_x, rel=0.02)
    assert pos[:, 2].std() == pytest.approx(sig_x, rel=0.02)
    assert vel[:, 1].mean() == pytest.approx(guide.mean_velocity, rel=0.02)
    assert vel[:, 1].std() == pytest.approx(sig_v, rel=0.02)
    assert vel[:, 0].mean() == pytest.approx(0.0, abs=4 * sig_v / math.sqrt(n))


def test_sample_initial_zero_temperature(atom, transit_cavity):
    cold = GuideParams(temperature=0.0)
    pos, vel = sample_initial(cold, atom, transit_cavity, np.random.default_rng(0))
    assert pos.tolist() == [0.0, -3.0 * transit_cavity.waist, 0.0]
    assert vel.tolist() == [0.0, cold.mean_velocity, 0.0]


def test_guide_validation():
    with pytest.raises(ConfigError):
        GuideParams(trap_omega=0.0)
    with pytest.raises(ConfigError):
        GuideParams(mean_velocity=-1.0)
    with pytest.raises(ConfigError):
        GuideParams(temperature=-1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=0.0),
        dict(dt=1 * US),  # exceeds window/20
        dict(stride=9 * US),  # exceeds window
        dict(duration=5 * US),  # shorter than window
        dict(threshold=-1),
        dict(min_dip=-1.0),
        dict(seed=-1),
        dict(n_atoms=0),
        dict(dark_windows=0),
    ],
)
def test_sim_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


# --- mode geometry ------------------------------------------------------------


def test_local_coupling_geometry(atom, transit_cavity):
    g0 = transit_cavity.g_max
    w0 = transit_cavity.waist
    lam = atom.wavelength
    assert local_coupling([0.0, 0.0, 0.0], transit_cavity, atom) == pytest.approx(g0, rel=1e-12)
    assert local_coupling([lam / 4, 0.0, 0.0], transit_cavity, atom) == pytest.approx(
        0.0, abs=1e-6 * g0
    )
    assert local_coupling([0.0, w0, 0.0], transit_cavity, atom) == pytest.approx(
        g0 / math.e, rel=1e-12
    )
    assert local_coupling([0.0, 0.0, w0], transit_cavity, atom) == pytest.approx(
        g0 / math.e, rel=1e-12
    )
    pts = np.array([[0.0, 0.0, 0.0], [lam / 2, 0.0, 0.0], [0.0, 3 * w0, 0.0]])
    g = local_coupling(pts, transit_cavity, atom)
    assert g.shape == (3,)
    assert np.all(g >= 0.0)
    assert g[1] == pytest.approx(g0, rel=1e-9)  # |cos| restores the half period


# --- click windowing and event detection ---------------------------------------


def test_windowed_counts_half_open():
    clicks = np.array([0.5, 1.5, 2.5, 7.9, 8.0]) * US_
    starts, counts = windowed_counts(clicks, 8 * US_, 1 * US_, duration=16 * US_)
    assert starts.shape == (9,)
    assert starts[0] == 0.0
    assert starts[-1] == pytest.approx(8 * US_)
    assert counts.tolist() == [4, 4, 3, 2, 2, 2, 2, 2, 1]


def test_windowed_counts_validation():
    with pytest.raises(ValueError):
        windowed_counts(np.array([1.0]), window=1.0, stride=2.0, duration=4.0)
    with pytest.raises(ValueError):
        windowed_counts(np.array([1.0]), window=8.0, stride=1.0, duration=2.0)


def test_windowed_counts_empty_stream():
    starts, counts = windowed_counts(np.array([]), 8 * US_, 1 * US_, duration=16 * US_)
    assert counts.tolist() == [0] * 9


def test_detect_events_single_dip():
    times = np.arange(5) * 1.0
    events = detect_events(times, np.array([12, 9, 12, 12, 12]), threshold=11, min_dip=0.0)
    assert events.tolist() == [1.0]


def test_detect_events_persistence():
    times = np.arange(8) * 1.0
    counts = np.array([12, 9, 9, 12, 9, 9, 9, 12])
    assert detect_events(times, counts, 11, min_dip=0.0).tolist() == [1.0, 4.0]
    # three-sample persistence keeps only the second excursion
    assert detect_events(times, counts, 11, min_dip=3.0).tolist() == [4.0]
    assert detect_events(times, counts, 11, min_dip=5.0).tolist() == []


def test_detect_events_none_below():
    times = np.arange(4) * 1.0
    out = detect_events(times, np.array([12, 13, 12, 15]), threshold=11, min_dip=0.0)
    assert out.size == 0
    assert detect_events(times, np.array([12, 13]), threshold=0, min_dip=0.0).size == 0


# --- click statistics -----------------------------------------------------------


def test_poisson_times_constant_rate_statistics():
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 1.0, 2001)
    t = _poisson_times(times, np.full_like(times, 5000.0), rng)
    assert np.all(np.diff(t) > 0)
    assert t.size == pytest.approx(5000, abs=5 * math.sqrt(5000))
    assert kstest(t, "uniform", args=(0.0, 1.0)).pvalue > 0.01
    assert kstest(np.diff(t), "expon", args=(0.0, 1 / 5000.0)).pvalue > 0.01


def test_poisson_times_linear_rate_statistics():
    # exact time change for rate a + b*t reduces arrivals to uniforms
    a, b, T = 2000.0, 6000.0, 1.0
    times = np.linspace(0.0, T, 2001)
    t = _poisson_times(times, a + b * times, np.random.default_rng(7))
    lam = (a * t + 0.5 * b * t**2) / (a * T + 0.5 * b * T**2)
    assert kstest(lam, "uniform").pvalue > 0.01


def test_empty_window_count_calibration(transit_cavity, transit_drive):
    # for these parameters the empty-cavity detected flux is exactly
    # j*(kappa_t/kappa)^2, i.e. 20 counts per 8 us window
    rate0 = empty_photons(transit_cavity, transit_drive) * transit_cavity.kappa_t
    assert rate0 * 8 * US_ == pytest.approx(20.0, rel=1e-12)
    rng = np.random.default_rng(3)
    span = 4000 * 8 * US_
    clicks = np.sort(rng.uniform(0.0, span, rng.poisson(rate0 * span)))
    _, counts = windowed_counts(clicks, 8 * US_, 1 * US_, duration=span)
    assert counts.mean() == pytest.approx(20.0, rel=0.015)


# --- single trajectories ----------------------------------------------------------


def test_ballistic_trajectory_closed_form(atom, transit_cavity, transit_drive):
    # zero temperature, no recoil: pure drift along the guide at the mean
    # velocity, transverse coordinates pinned to the axis
    guide = GuideParams(temperature=0.0)
    sim = SimConfig(seed=0, include_recoil=False, duration=40 * US)
    rec = simulate_block(atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(0, 0)])[0]
    expected_y = -3.0 * transit_cavity.waist + guide.mean_velocity * rec.times
    assert np.array_equal(rec.position[:, 1], expected_y)
    assert np.all(rec.position[:, 0] == 0.0)
    assert np.all(rec.position[:, 2] == 0.0)
    # photon numbers agree with the scalar solver at sampled points
    for i in (0, len(rec.times) // 2, len(rec.times) - 1):
        g_i = local_coupling(rec.position[i], transit_cavity, atom)
        direct = solve_stationary(atom, transit_cavity, transit_drive, g_local=g_i).n_photons
        assert rec.n_photons[i] == pytest.approx(direct, rel=1e-9)
    # scattered-photon integral recomputed from the stored photon numbers
    g_t = local_coupling(rec.position, transit_cavity, atom)
    g2s = (g_t / atom.gamma) ** 2
    rho11 = g2s * rec.n_photons / ((atom.delta_a / atom.gamma) ** 2 + 1.0 + 2.0 * g2s * rec.n_photons)
    m = np.trapezoid(2.0 * atom.gamma * rho11, rec.times)
    assert rec.m_scattered == pytest.approx(m, rel=1e-12)


def test_transit_produces_detectable_dip(atom, transit_cavity, transit_drive, guide):
    sim = SimConfig(seed=0, duration=100 * US)
    rec = simulate_block(
        atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(0, 0)]
    )[0]
    assert rec.windowed_counts.min() < sim.threshold
    assert rec.n_photons.min() < empty_photons(transit_cavity, transit_drive)
    events = detect_events(rec.window_times, rec.windowed_counts, sim.threshold, sim.min_dip)
    assert events.size >= 1


def test_step_bound_enforced(atom, transit_cavity, transit_drive, guide):
    sim = SimConfig(dt=200e-9, seed=0)
    with pytest.raises(StepTooLarge):
        simulate_block(atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(0, 0)])
    with pytest.raises(StepTooLarge):
        run_ensemble(atom, transit_cavity, transit_drive, guide, sim)


def test_fast_atom_strains_slaved_field(atom, transit_cavity, transit_drive):
    fast = GuideParams(mean_velocity=50.0)
    sim = SimConfig(
        dt=1e-9, window=8 * US, duration=8 * US, include_recoil=False, seed=0, n_atoms=1,
        dark_windows=10,
    )
    with pytest.warns(QuasiStaticViolated):
        run_ensemble(atom, transit_cavity, transit_drive, fast, sim)


@pytest.mark.parametrize("include_recoil", [False, True])
def test_quasi_static_warning_fires_once_per_ensemble(
    monkeypatch, atom, transit_cavity, transit_drive, include_recoil
):
    # 8 atoms in blocks of 4 on either path; the warning is about the guide
    # and the cavity, not about a block, so its count must not follow the layout
    monkeypatch.setattr(trajectory_sim, "BALLISTIC_ATOMS", 4)
    monkeypatch.setattr(trajectory_sim, "BLOCK_ATOMS", 4)
    fast = GuideParams(mean_velocity=7.0)
    sim = SimConfig(
        dt=0.01 * US, duration=10 * US, include_recoil=include_recoil, n_atoms=8,
        dark_windows=10,
    )
    assert len(trajectory_sim._blocks(sim.n_atoms, 4)) == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_ensemble(atom, transit_cavity, transit_drive, fast, sim)
    assert [w.category for w in caught] == [QuasiStaticViolated]


# --- determinism -------------------------------------------------------------------


def test_trajectory_rng_streams():
    a1 = trajectory_rng(0, 5).normal(size=4)
    a2 = trajectory_rng(0, 5).normal(size=4)
    b = trajectory_rng(0, 6).normal(size=4)
    c = trajectory_rng(1, 5).normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_same_seed_reproduces_trajectory(atom, transit_cavity, transit_drive, guide):
    sim = SimConfig(seed=4, duration=24 * US)
    r1 = simulate_block(atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(4, 2)])[0]
    r2 = simulate_block(atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(4, 2)])[0]
    assert np.array_equal(r1.position, r2.position)
    assert np.array_equal(r1.click_times, r2.click_times)
    assert r1.m_scattered == r2.m_scattered


def test_worker_count_does_not_change_results(
    monkeypatch, atom, transit_cavity, transit_drive, guide
):
    # one block of 8 against the two blocks of 4 that two workers once ran
    sim = SimConfig(seed=0, n_atoms=8, duration=40 * US, dark_windows=200)
    sink1, sink2 = {}, {}
    rep1 = run_ensemble(
        atom, transit_cavity, transit_drive, guide, sim,
        record_sink=lambda i, r: sink1.__setitem__(i, r),
    )
    monkeypatch.setattr(trajectory_sim, "BLOCK_ATOMS", 4)
    assert trajectory_sim._blocks(8, trajectory_sim.BLOCK_ATOMS) == [(0, 4), (4, 8)]
    rep2 = run_ensemble(
        atom, transit_cavity, transit_drive, guide, sim,
        record_sink=lambda i, r: sink2.__setitem__(i, r),
    )
    assert rep1.efficiency == rep2.efficiency
    assert rep1.dark_rate == rep2.dark_rate
    assert rep1.mean_m == rep2.mean_m
    assert rep1.detections == rep2.detections
    assert sorted(sink1) == sorted(sink2) == list(range(8))
    for i in range(8):
        assert np.array_equal(sink1[i].click_times, sink2[i].click_times)
        assert np.array_equal(sink1[i].n_photons, sink2[i].n_photons)
        assert np.array_equal(sink1[i].position, sink2[i].position)
        assert sink1[i].m_scattered == sink2[i].m_scattered


def _same_record(a, b):
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.position, b.position)
        and np.array_equal(a.n_photons, b.n_photons)
        and np.array_equal(a.click_times, b.click_times)
        and np.array_equal(a.window_times, b.window_times)
        and np.array_equal(a.windowed_counts, b.windowed_counts)
        and a.m_scattered == b.m_scattered
    )


def test_trajectory_does_not_depend_on_its_block(
    monkeypatch, atom, transit_cavity, transit_drive, guide
):
    # alone, inside one lockstep block of 80, and in blocks of 40 and of
    # 26-27; an atom that keeps updating after its Newton solve converged
    # would differ here in the last bits
    sim = SimConfig(seed=3, n_atoms=80, duration=40 * US, dark_windows=100)
    layouts = {80: [(0, 80)], 40: [(0, 40), (40, 80)], 27: [(0, 26), (26, 53), (53, 80)]}
    sinks, reports = [], []
    for block_atoms, blocks in layouts.items():
        monkeypatch.setattr(trajectory_sim, "BLOCK_ATOMS", block_atoms)
        assert trajectory_sim._blocks(80, block_atoms) == blocks
        sink = {}
        reports.append(
            run_ensemble(
                atom, transit_cavity, transit_drive, guide, sim, record_sink=sink.__setitem__
            )
        )
        sinks.append(sink)
    for rep, sink in zip(reports[1:], sinks[1:]):
        assert rep == reports[0]  # efficiency, dark rate, mean M and detections
        assert list(sink) == list(sinks[0]) == list(range(80))
        assert all(_same_record(sink[i], sinks[0][i]) for i in range(80))
    assert reports[0].detections
    for i in (0, 1, 39, 40, 79):
        alone = simulate_block(
            atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(3, i)]
        )[0]
        assert _same_record(alone, sinks[0][i])


@pytest.mark.parametrize(
    "include_recoil, velocity, threshold, min_dip",
    [
        # detections and atoms without one
        (False, 0.4, 11, 3 * US),
        (True, 0.4, 11, 3 * US),
        # fast atoms: several atoms' first events start outside PRESENCE_WAISTS
        (False, 1.5, 18, 0.0),
        (True, 1.5, 11, 3 * US),
    ],
)
@pytest.mark.parametrize("compact_min", [1, steady_state._COMPACT_MIN])
def test_block_records_match_the_per_atom_oracle_bitwise(
    monkeypatch, atom, transit_cavity, transit_drive, include_recoil, velocity, threshold, min_dip,
    compact_min,
):
    # 11 atoms: two full slices of _RECORD_ATOMS and a partial one; a
    # ballistic block solves 11 x 1,201 couplings, above _COMPACT_MIN, and
    # at 1 the recoil stepper's 11-element solves are compacted as well
    monkeypatch.setattr(steady_state, "_COMPACT_MIN", compact_min)
    sim = SimConfig(
        seed=5, n_atoms=11, duration=60 * US, include_recoil=include_recoil,
        threshold=threshold, min_dip=min_dip, dark_windows=10,
    )
    assert 11 % trajectory_sim._RECORD_ATOMS
    blocks, records_of = [], trajectory_sim._records

    def spy(times, position, n_t, rho11_t, gam, cavity, sim, rngs):
        blocks.append((times, position, n_t, rho11_t, gam, copy.deepcopy(rngs)))
        return records_of(times, position, n_t, rho11_t, gam, cavity, sim, rngs)

    monkeypatch.setattr(trajectory_sim, "_records", spy)
    rngs = [trajectory_rng(sim.seed, i) for i in range(11)]
    guide = GuideParams(mean_velocity=velocity)
    got = simulate_block(atom, transit_cavity, transit_drive, guide, sim, rngs)
    ((times, position, n_t, rho11_t, gam, twins),) = blocks
    expected = [
        record(times, position[j], n_t[j], rho11_t[j], gam, transit_cavity, sim, twins[j])
        for j in range(11)
    ]
    for a, b in zip(got, expected):
        assert _same_record(a, b)
        assert a.n_photons.tobytes() == b.n_photons.tobytes()
        assert a.click_times.tobytes() == b.click_times.tobytes()
        assert a.m_scattered.hex() == b.m_scattered.hex()
    # each atom drew exactly the clicks its own generator gave the oracle
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in twins]
    hits = trajectory_sim._first_detections(got, transit_cavity, sim)
    assert hits == [first_detection(r, transit_cavity, sim) for r in expected]
    assert any(h is not None for h in hits)
    if not include_recoil:
        g2, e2, kap, da, dc = steady_state._scaled(
            atom, transit_cavity, local_coupling(position, transit_cavity, atom), transit_drive.j_in
        )
        assert n_t.tobytes() == lower_branch(g2, e2, kap, da, dc).tobytes()
    # and every record is the one the uncompacted masked loop gives
    monkeypatch.setattr(steady_state, "_COMPACT_MIN", 10**9)
    rngs = [trajectory_rng(sim.seed, i) for i in range(11)]
    uncompacted = simulate_block(atom, transit_cavity, transit_drive, guide, sim, rngs)
    assert all(_same_record(a, b) for a, b in zip(got, uncompacted))


def test_ballistic_record_does_not_depend_on_its_block(
    monkeypatch, atom, transit_cavity, transit_drive, guide
):
    # without recoil a block is one cold stationary_scan over (atoms, steps);
    # 40 atoms are more than one block of BALLISTIC_ATOMS
    sim = SimConfig(seed=3, n_atoms=40, duration=40 * US, dark_windows=100, include_recoil=False)
    assert 40 > trajectory_sim.BALLISTIC_ATOMS
    layouts = {
        16: [(0, 13), (13, 26), (26, 40)],
        40: [(0, 40)],
        7: [(0, 6), (6, 13), (13, 20), (20, 26), (26, 33), (33, 40)],
    }
    sinks, reports = [], []
    for block_atoms, blocks in layouts.items():
        monkeypatch.setattr(trajectory_sim, "BALLISTIC_ATOMS", block_atoms)
        assert trajectory_sim._blocks(40, block_atoms) == blocks
        sink = {}
        reports.append(
            run_ensemble(
                atom, transit_cavity, transit_drive, guide, sim, record_sink=sink.__setitem__
            )
        )
        sinks.append(sink)
    for rep, sink in zip(reports[1:], sinks[1:]):
        assert rep == reports[0]  # efficiency, dark rate, mean M and detections
        assert list(sink) == list(sinks[0]) == list(range(40))
        assert all(_same_record(sink[i], sinks[0][i]) for i in range(40))
    assert reports[0].detections
    # blocks of 16 with a partial last block of 8, called directly
    direct = []
    for start in range(0, 40, 16):
        rngs = [trajectory_rng(3, i) for i in range(start, min(start + 16, 40))]
        direct += simulate_block(atom, transit_cavity, transit_drive, guide, sim, rngs)
    assert len(direct) == 40
    for i in range(40):
        alone = simulate_block(
            atom, transit_cavity, transit_drive, guide, sim, [trajectory_rng(3, i)]
        )[0]
        assert _same_record(alone, sinks[0][i])
        assert _same_record(direct[i], sinks[0][i])


def test_blocks_are_equal_and_fewest(monkeypatch):
    for block_atoms in (trajectory_sim.BLOCK_ATOMS, 128, 7):
        monkeypatch.setattr(trajectory_sim, "BLOCK_ATOMS", block_atoms)
        for n_atoms in (1, 7, 80, 128, 129, 500, 512, 513, 600, 1100):
            blocks = trajectory_sim._blocks(n_atoms, block_atoms)
            sizes = [stop - start for start, stop in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == n_atoms
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) <= block_atoms
            # the fewest such blocks: one block fewer would exceed BLOCK_ATOMS
            fewer = len(blocks) - 1
            assert fewer < 1 or -(-n_atoms // fewer) > block_atoms


# --- the photon-number solve of the recoil stepper ------------------------------


def _residuals(rec, atom, cavity, drive):
    """h(N) = N*((kappa + gamma(N))^2 + (delta_c - U(N))^2) - eta^2 at every step, in SI."""
    g = local_coupling(rec.position, cavity, atom)
    n = rec.n_photons
    d = atom.delta_a**2 + atom.gamma**2 + 2.0 * g * g * n
    damping = cavity.kappa + g * g * atom.gamma / d
    shift = cavity.delta_c - g * g * atom.delta_a / d
    return n * (damping**2 + shift**2) - drive.j_in * cavity.kappa_t


def test_recoil_photon_numbers_are_roots(atom, transit_cavity, transit_drive, guide):
    sim = SimConfig(seed=0, n_atoms=12, dark_windows=100)
    eta2 = transit_drive.j_in * transit_cavity.kappa_t
    records = []
    run_ensemble(
        atom, transit_cavity, transit_drive, guide, sim,
        record_sink=lambda i, r: records.append(r),
    )
    for rec in records:
        assert np.all(rec.n_photons > 0.0)
        assert np.max(np.abs(_residuals(rec, atom, transit_cavity, transit_drive))) <= 1e-10 * eta2


# strongly driven, strongly coupled: near the antinode c2 < 0 < c1, so the
# cubic may have three positive roots and Newton's root is not trusted
STRONG_CAVITY = CavityParams(g_max=12 * MHZ, kappa_t=1.5 * MHZ, kappa_loss=1.5 * MHZ, waist=3 * UM)
STRONG_DRIVE = DriveParams(75e6, 10 * US)


def test_recoil_solve_guard_falls_back_where_bistable(monkeypatch, atom, guide):
    guarded = []
    scalar = steady_state._roots_scaled

    def spy(*args):
        guarded.append(args)
        return scalar(*args)

    monkeypatch.setattr(steady_state, "_roots_scaled", spy)
    sim = SimConfig(seed=0, duration=40 * US)
    rec = simulate_block(atom, STRONG_CAVITY, STRONG_DRIVE, guide, sim, [trajectory_rng(0, 2)])[0]
    monkeypatch.undo()
    gam = atom.gamma
    scaled = (
        STRONG_DRIVE.j_in * STRONG_CAVITY.kappa_t / gam**2,
        STRONG_CAVITY.kappa / gam,
        atom.delta_a / gam,
        STRONG_CAVITY.delta_c / gam,
    )
    assert all(args[1:] == scaled for args in guarded)
    bistable = [
        (c2 < 0.0) & (c1 > 0.0)
        for c3, c2, c1, c0 in (steady_state._cubic_coeffs(*args) for args in guarded)
    ]
    assert any(bistable)
    for i in range(rec.times.size):
        g = local_coupling(rec.position[i], STRONG_CAVITY, atom)
        lower = stationary_photon_numbers(atom, STRONG_CAVITY, STRONG_DRIVE, g_local=g)[0]
        assert rec.n_photons[i] == pytest.approx(lower, rel=1e-9)


def test_recoil_fallback_that_is_not_a_root_raises(monkeypatch, atom, guide):
    # no N passes the root test: the stepper's elements fall back to the
    # scalar solver, whose bracketed solve raises instead of returning a
    # number that is not a root
    monkeypatch.setattr(steady_state, "_ROOT_RTOL", -1.0)
    sim = SimConfig(seed=0, duration=40 * US)
    with pytest.raises(NoPhysicalRoot, match="no stationary root passed"):
        simulate_block(atom, STRONG_CAVITY, STRONG_DRIVE, guide, sim, [trajectory_rng(0, 2)])[0]


# --- ensemble detection -----------------------------------------------------------


def test_threshold_tradeoff(atom, transit_cavity, transit_drive, guide):
    # raising the count threshold catches more atoms and more dark events
    base = SimConfig(seed=0, n_atoms=40, include_recoil=False, dark_windows=3000)
    effs, darks = [], []
    for threshold in (9, 11, 13):
        rep = run_ensemble(
            atom, transit_cavity, transit_drive, guide, replace(base, threshold=threshold)
        )
        effs.append(rep.efficiency)
        darks.append(rep.dark_rate)
    assert effs[0] <= effs[1] <= effs[2]
    assert darks[0] <= darks[1] <= darks[2]
    assert effs[1] > 0.5


def test_threshold_extremes(atom, transit_cavity, transit_drive, guide):
    base = SimConfig(seed=0, n_atoms=6, include_recoil=False, dark_windows=300)
    silent = run_ensemble(
        atom, transit_cavity, transit_drive, guide, replace(base, threshold=0)
    )
    assert silent.efficiency == 0.0
    assert silent.dark_rate == 0.0
    trigger_happy = run_ensemble(
        atom, transit_cavity, transit_drive, guide, replace(base, threshold=1000)
    )
    assert trigger_happy.efficiency == 1.0
    assert trigger_happy.dark_rate > 0.0


def test_dark_rate_intervals(transit_cavity, transit_drive):
    sim = SimConfig(seed=0, dark_windows=3000)
    rate, ci, conv = dark_rates(transit_cavity, transit_drive, sim)
    assert ci[0] <= rate <= ci[1]
    # the configured three-stride persistence sits inside the sweep
    assert conv[0] <= rate <= conv[1]
    assert conv[0] >= 0.0


def test_detection_report_structure(atom, transit_cavity, transit_drive, guide):
    sim = SimConfig(seed=1, n_atoms=10, include_recoil=False, dark_windows=200)
    rep = run_ensemble(atom, transit_cavity, transit_drive, guide, sim)
    assert rep.n_atoms == 10
    assert 0.0 <= rep.efficiency <= 1.0
    assert rep.mean_m > 0.0
    for index, t_hit in rep.detections:
        assert 0 <= index < 10
        assert 0.0 <= t_hit <= sim.duration
    assert rep.efficiency == len(rep.detections) / 10
