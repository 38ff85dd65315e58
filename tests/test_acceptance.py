"""Acceptance gate: one test per headline claim, at the stated tolerance.

Run with -v for the per-criterion pass/fail lines; each test also prints
the measured values next to their target bands.
"""
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest

from cavdet import (
    MHZ,
    UM,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    FiberCavityDesign,
    GuideParams,
    SaturationWarning,
    SimConfig,
    derive,
    homodyne_report,
    run_ensemble,
    snr_low_saturation,
    snr_resonant,
    snr_strong_limit,
    snr_weak_limit,
    solve_stationary,
    spatial_averages,
    stationary_photon_numbers,
    trajectory_rng,
)
from cavdet import trajectory_sim
from cavdet.trajectory_sim import _poisson_times
from oracles import integrate_bloch

TAU = 10 * US


def _band(name, value, target, rel):
    lo, hi = target * (1 - rel), target * (1 + rel)
    assert lo <= value <= hi, f"{name}={value:.6g} outside {target}±{100 * rel:g}% [{lo:.6g}, {hi:.6g}]"
    return f"{name}={value:.4g} (target {target}±{100 * rel:g}%)"


def test_criterion_1_single_pass_snr_and_budget():
    atom = AtomParams()
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=0.59 * MHZ, kappa_loss=0.59 * MHZ)
    rep = snr_resonant(atom, cavity, DriveParams(2e6, TAU))
    parts = [
        _band("N_out_empty", rep.n_out_empty, 5.0, 0.005),
        _band("S", rep.snr, 93.0, 0.02),
        _band("M", rep.m_scattered, 0.47, 0.03),
    ]
    print("criterion 1:", "; ".join(parts))


def test_criterion_2_pump_optimum_and_speed():
    atom = AtomParams()
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)
    t0 = time.perf_counter()
    grid = np.logspace(math.log10(1e4), math.log10(1e8), 200)
    snrs = [snr_resonant(atom, cavity, DriveParams(j, TAU)).snr for j in grid]
    elapsed = time.perf_counter() - t0
    best = max(snrs)
    j_best = grid[int(np.argmax(snrs))]
    parts = [_band("max_S", best, 35.0, 0.05), f"argmax j_in={j_best / 1e6:.3g}/us"]
    assert elapsed < 1.0, f"200-point pump scan took {elapsed:.2f} s (budget 1 s)"
    parts.append(f"scan time {elapsed * 1e3:.0f} ms (budget 1000 ms)")
    print("criterion 2:", "; ".join(parts))


def test_criterion_3_lossy_cavity_optimum():
    atom = AtomParams()
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=43 * MHZ, kappa_loss=86 * MHZ)
    grid = np.logspace(math.log10(1e5), math.log10(1e10), 400)
    reports = [snr_resonant(atom, cavity, DriveParams(j, TAU)) for j in grid]
    i = int(np.argmax([r.snr for r in reports]))
    parts = [
        _band("max_S", reports[i].snr, 3.75, 0.05),
        _band("M_at_opt", reports[i].m_scattered, 86.0, 0.05),
    ]
    print("criterion 3:", "; ".join(parts))


def test_criterion_4_dispersive_design_point():
    atom = AtomParams(delta_a=200 * 3 * MHZ)
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=0.59 * MHZ, kappa_loss=0.59 * MHZ)
    rep = homodyne_report(atom, cavity, DriveParams(50e6, TAU))
    parts = [
        _band("N_out_empty", rep.n_out_empty, 125.0, 0.005),
        _band("S_hom", rep.snr, 4.3, 0.05),
        _band("M", rep.m_scattered, 0.49, 0.05),
    ]
    print("criterion 4:", "; ".join(parts))


def test_criterion_5_averaged_signal_and_back_action():
    atom = AtomParams()
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=11 * MHZ, kappa_loss=22 * MHZ)
    with pytest.warns(SaturationWarning):
        av = spatial_averages(atom, cavity, DriveParams(20e6, TAU))
    parts = [
        _band("S_bar", av.s_bar, 5.1, 0.02),
        _band("M_bar", av.m_bar, 25.0, 0.02),
        _band("delta_p", av.delta_p, 9.3, 0.02),
        _band("delta_z_nm", av.delta_z * 1e9, 320.0, 0.02),
    ]
    print("criterion 5:", "; ".join(parts))


def test_criterion_6_fiber_gap_design():
    atom = AtomParams()
    design = FiberCavityDesign(fiber_length=10.4e-3)
    mode13 = derive(design, atom, mode_index=13)
    mode4 = derive(design, atom, mode_index=4)
    parts = [
        _band("w0_um", mode13.waist / UM, 2.92, 0.01),
        _band("gap13_um", 2 * mode13.half_gap / UM, 5.079, 0.001),
        _band("gap4_um", 2 * mode4.half_gap / UM, 1.563, 0.001),
        _band("kappa_gap13_MHz", mode13.kappa_gap / MHZ, 6.23, 0.03),
        _band("kappa_gap4_MHz", mode4.kappa_gap / MHZ, 0.59, 0.03),
        _band("g_MHz", mode13.g_max / MHZ, 12.2, 0.02),
        _band("kappa_t_MHz", mode13.kappa_t / MHZ, 7.65, 0.01),
    ]
    print("criterion 6:", "; ".join(parts))


def test_criterion_7_transit_monte_carlo():
    atom = AtomParams()
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=14 * MHZ, kappa_loss=14 * MHZ, waist=3 * UM)
    drive = DriveParams(10e6, TAU)
    guide = GuideParams()
    base = SimConfig(seed=0, n_atoms=500, threshold=11, window=8 * US, dark_windows=20000)
    t0 = time.perf_counter()
    reports = {}
    for recoil in (True, False):
        reports[recoil] = run_ensemble(
            atom, cavity, drive, guide, replace(base, include_recoil=recoil)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"ensemble took {elapsed:.0f} s (budget 300 s)"

    effs = {k: r.efficiency for k, r in reports.items()}
    in_band = [k for k, e in effs.items() if 0.69 <= e <= 0.85]
    assert in_band, f"efficiency {effs} outside 0.77±0.08 in both recoil settings"
    parts = [f"efficiency recoil={effs[True]:.3f} ballistic={effs[False]:.3f} (target 0.77±0.08 in >=1)"]
    for recoil, rep in reports.items():
        parts.append(_band(f"mean_M(recoil={recoil})", rep.mean_m, 28.3, 0.15))

    rep = reports[True]
    assert 250.0 <= rep.dark_rate <= 2500.0, f"dark rate {rep.dark_rate:.0f}/s outside [250, 2500]"
    # the dark rate depends on the dip-persistence convention; the claim is
    # banded by the hull of the statistical CI and the convention sweep
    lo = min(rep.dark_rate_ci[0], rep.dark_rate_convention_range[0])
    hi = max(rep.dark_rate_ci[1], rep.dark_rate_convention_range[1])
    assert lo <= 750.0 <= hi, f"750/s outside convention/CI hull [{lo:.0f}, {hi:.0f}]"
    parts.append(
        f"dark={rep.dark_rate:.0f}/s in [250,2500], hull [{lo:.0f},{hi:.0f}] covers 750/s"
    )
    parts.append(f"runtime {elapsed:.0f} s (budget 300 s)")
    print("criterion 7:", "; ".join(parts))


def test_criterion_8_property_suite(monkeypatch):
    atom = AtomParams()
    parts = []

    # (a) cubic roots vs an independent dense-scan + Brent oracle, 1e-6
    narrow = CavityParams(g_max=12 * MHZ, kappa_t=0.59 * MHZ, kappa_loss=0.59 * MHZ)
    drive = DriveParams(120e6, TAU)

    def resid(n):
        d = atom.gamma**2 + 2 * narrow.g_max**2 * n
        gam_eff = narrow.g_max**2 * atom.gamma / d
        return n * (narrow.kappa + gam_eff) ** 2 - drive.j_in * narrow.kappa_t

    n_max = drive.j_in * narrow.kappa_t / narrow.kappa**2
    xs = np.linspace(0.0, n_max * (1 + 1e-9), 200001)
    vs = resid(xs)
    oracle = [
        brentq(resid, xs[i], xs[i + 1], xtol=1e-300, rtol=8.9e-16)
        for i in np.flatnonzero(np.sign(vs[:-1]) != np.sign(vs[1:]))
    ]
    got = stationary_photon_numbers(atom, narrow, drive)
    assert len(got) == len(oracle) == 3
    for a, b in zip(got, oracle):
        assert a == pytest.approx(b, rel=1e-6)
    parts.append("roots match dense-scan oracle at 1e-6 (bistable case)")

    # (b) transient integrator relaxes onto the stationary solver, 1e-4
    main = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)
    drive_m = DriveParams(2e7, TAU)
    stat = solve_stationary(atom, main, drive_m)
    traj = integrate_bloch(atom, main, drive_m, t_end=30.0 / atom.gamma)
    assert abs(traj.alpha[-1]) ** 2 == pytest.approx(stat.n_photons, rel=1e-4)
    parts.append("integrator agrees with stationary state at 1e-4")

    # (c) rate-scaling invariance at 1e-9 for r in {0.5, 2, 10}
    for r in (0.5, 2.0, 10.0):
        s1 = solve_stationary(
            AtomParams(gamma=3 * MHZ), main, DriveParams(5e7, TAU)
        )
        s2 = solve_stationary(
            AtomParams(gamma=r * 3 * MHZ),
            CavityParams(g_max=r * 12 * MHZ, kappa_t=r * 3 * MHZ, kappa_loss=r * 6 * MHZ),
            DriveParams(r * 5e7, TAU / r),
        )
        assert s2.n_photons == pytest.approx(s1.n_photons, rel=1e-9)
        assert s2.rho11 == pytest.approx(s1.rho11, rel=1e-9)
    parts.append("rate-scaling invariance at 1e-9 for r in {0.5, 2, 10}")

    # (d) asymptotic limits within 5% deep in their regimes
    weak_cav = CavityParams(g_max=12 * MHZ, kappa_t=100 * MHZ, kappa_loss=4700 * MHZ)
    weak_drive = DriveParams(1e5, TAU)
    rep_w = snr_resonant(atom, weak_cav, weak_drive)
    assert rep_w.snr == pytest.approx(snr_weak_limit(atom, weak_cav, weak_drive).value, rel=0.05)
    sat_drive = DriveParams(1e11, TAU)
    rep_s = snr_resonant(atom, main, sat_drive)
    assert rep_s.snr == pytest.approx(snr_strong_limit(atom, sat_drive), rel=0.05)
    parts.append("weak/saturated asymptotes within 5%")

    # (e) spatial average halves the peak SNR in both coupling limits, 1%
    for kt, kl in ((100.0, 47900.0), (0.024, 0.024)):
        cav = CavityParams(g_max=12 * MHZ, kappa_t=kt * MHZ, kappa_loss=kl * MHZ)
        d = DriveParams(1e4, TAU)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ratio = spatial_averages(atom, cav, d).s_bar / snr_low_saturation(atom, cav, d)
        assert ratio == pytest.approx(0.5, rel=0.01)
    parts.append("S_bar/S = 0.5±1% in both coupling limits")

    # (f) inter-click intervals are exponential (KS p > 0.01)
    times = np.linspace(0.0, 1.0, 2001)
    clicks = _poisson_times(times, np.full_like(times, 5000.0), np.random.default_rng(42))
    p = kstest(np.diff(clicks), "expon", args=(0.0, 1 / 5000.0)).pvalue
    assert p > 0.01
    parts.append(f"inter-click KS p={p:.3f} > 0.01")

    # (g) byte-identical ensemble results for one block and for several
    cavity = CavityParams(g_max=12 * MHZ, kappa_t=14 * MHZ, kappa_loss=14 * MHZ, waist=3 * UM)
    sim = SimConfig(seed=0, n_atoms=6, duration=40 * US, dark_windows=200)
    sinks = []
    for block_atoms in (6, 3, 1):
        monkeypatch.setattr(trajectory_sim, "BLOCK_ATOMS", block_atoms)
        clicks_by_index = {}
        run_ensemble(
            atom, cavity, DriveParams(10e6, TAU), GuideParams(), sim,
            record_sink=lambda i, r: clicks_by_index.__setitem__(i, r.click_times.tobytes()),
        )
        sinks.append(clicks_by_index)
    assert sinks[0] == sinks[1] == sinks[2]
    parts.append("click streams byte-identical for blocks of 6, 3 and 1 atoms")

    print("criterion 8:", "; ".join(parts))
