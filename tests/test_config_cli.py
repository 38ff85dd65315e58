"""Config parsing, digests, and the command-line entry points."""
import argparse
import errno
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cavdet import (
    AtomParams,
    CavityParams,
    ConfigError,
    DriveParams,
    FiberCavityDesign,
    GuideParams,
    KHZ,
    MHZ,
    UM,
    US,
    SaturationWarning,
    SimConfig,
    SmallDetuningWarning,
    config_digest,
    derive,
    design_to_cavity,
    dispersive_saturation_pump,
    homodyne_report,
    dark_rates,
    load_config,
    parse_config,
    run_ensemble,
    saturation_pump,
    snr_resonant,
    solve_stationary,
    spatial_averages,
    stationary_photon_numbers,
)
from cavdet import cli, params, resonant_detection, trajectory_sim
from cavdet.cli import _fmt, _pump_grid, run
from cavdet.config import DEFAULTS, PUMP_RANGE_PER_US, RANGES
from cavdet.errors import NoPhysicalRoot, StepTooLarge
from cavdet.steady_state import StationaryState

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
MAIN = str(CONFIG_DIR / "main_cavity.json")
TRANSIT = str(CONFIG_DIR / "transit.json")
NARROW = str(CONFIG_DIR / "narrow_cavity.json")


# --- config parsing ----------------------------------------------------------


def test_defaults_round_trip():
    cfg = parse_config({})
    assert cfg.atom.gamma == 3.0 * MHZ
    assert cfg.atom.delta_a == 0.0
    assert cfg.cavity.g_max == 12.0 * MHZ
    assert cfg.cavity.kappa_t == 3.0 * MHZ
    assert cfg.cavity.kappa_loss == 6.0 * MHZ
    assert cfg.cavity.waist == 3.0 * UM
    assert not cfg.cavity.asymmetric_input
    assert cfg.drive.j_in == 2.0e6
    assert cfg.drive.tau == 10.0 * US
    assert cfg.guide.trap_omega == 37.0 * KHZ
    assert cfg.guide.temperature == pytest.approx(30.0e-6, rel=1e-12)
    assert cfg.sim.window == 8.0 * US
    assert cfg.sim.threshold == 11
    assert cfg.resolved == DEFAULTS
    assert cfg.digest == config_digest(DEFAULTS)


def test_dataclass_defaults_are_the_configs():
    # one owner per default: every dataclass field with a config key defaults
    # to what parse_config({}) resolves, to the bit; kappa_loss alone defaults
    # to a lossless cavity on purpose
    cfg = parse_config({})
    defaults = {
        "atom": AtomParams(),
        "guide": GuideParams(),
        "sim": SimConfig(),
        "cavity": CavityParams(g_max=cfg.cavity.g_max, kappa_t=cfg.cavity.kappa_t),
    }
    for section, default in defaults.items():
        resolved = getattr(cfg, section)
        for field in fields(default):
            value = getattr(default, field.name)
            if (section, field.name) == ("cavity", "kappa_loss"):
                assert value == 0.0 < resolved.kappa_loss
            else:
                assert repr(value) == repr(getattr(resolved, field.name)), field.name
    # design-cavity's flags default to the design's and the atom's values
    args = cli.build_parser().parse_args(["design-cavity", "--core-um", "5"])
    design = FiberCavityDesign(fiber_length=10.4e-3)
    assert (args.n_core, args.n_clad, args.transmission, args.lambda_nm * 1e-9) == (
        design.n_core, design.n_clad, design.mirror_transmission, design.wavelength0
    )
    assert (args.lambda_nm * 1e-9, args.gamma_mhz * MHZ) == (
        AtomParams().wavelength, AtomParams().gamma
    )


def test_detuning_scales_with_linewidth():
    cfg = parse_config({"atom": {"gamma_mhz": 4.0, "delta_a_over_gamma": 200.0}})
    assert cfg.atom.gamma == 4.0 * MHZ
    assert cfg.atom.delta_a == pytest.approx(200.0 * 4.0 * MHZ, rel=1e-12)


def test_partial_override_keeps_other_defaults():
    cfg = parse_config({"cavity": {"kappa_loss_mhz": 14.0}})
    assert cfg.cavity.kappa_loss == 14.0 * MHZ
    assert cfg.cavity.kappa_t == 3.0 * MHZ
    assert cfg.resolved["cavity"]["kappa_loss_mhz"] == 14.0


@pytest.mark.parametrize(
    "raw",
    [
        {"atoms": {}},  # unknown section
        {"atom": {"gamma": 3.0}},  # unknown field
        {"atom": 7},  # section not an object
        [1, 2, 3],  # root not an object
    ],
)
def test_bad_config_shapes(raw):
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sim", "include_recoil", "false"),  # a truthy string ran with recoil
        ("sim", "include_recoil", 0),
        ("cavity", "asymmetric_input", "no"),  # turned the output doubling on
        ("cavity", "asymmetric_input", None),
        ("sim", "threshold", 10.5),  # silently became 10
        ("sim", "threshold", "12"),  # silently became 12
        ("sim", "seed", True),
        ("cavity", "g_mhz", True),  # read as 1 MHz
        ("cavity", "g_mhz", "12"),  # escaped as a TypeError
        ("cavity", "g_mhz", None),
        ("drive", "tau_us", [10.0]),
        ("cavity", "g_mhz", 10**400),  # overflowed converting to rad/s
    ],
)
def test_config_value_must_have_its_json_type(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
        parse_config({section: {key: value}})


def test_config_values_of_their_json_type_are_kept():
    # a JSON integer is a number, and a count may be written without a fraction
    cfg = parse_config(
        {
            "cavity": {"g_mhz": 12, "asymmetric_input": True},
            "sim": {"threshold": 12.0, "include_recoil": False},
        }
    )
    assert cfg.cavity.g_max == 12 * MHZ and cfg.cavity.asymmetric_input is True
    assert cfg.sim.threshold == 12 and type(cfg.sim.threshold) is int
    assert cfg.sim.include_recoil is False


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_digest_is_order_insensitive():
    assert config_digest({"b": 1, "a": 2}) == config_digest({"a": 2, "b": 1})
    assert config_digest({"a": 1}) != config_digest({"a": 2})


def test_repo_configs_parse():
    for path in (MAIN, TRANSIT, NARROW):
        cfg = load_config(path)
        assert cfg.digest


# --- scan grids ----------------------------------------------------------------


def _grid_flags(lo, hi, points, decades=4.0):
    """The parsed grid flags of a pump scan: --jmin-per-us, --jmax-per-us, --points, --decades."""
    return argparse.Namespace(jmin_per_us=lo, jmax_per_us=hi, points=points, decades=decades)


def _no_center():
    raise AssertionError("the centre of the default grid is evaluated only for it")


def test_scan_spec_grids():
    grid = _pump_grid(_grid_flags(1.0, 100.0, 5), _no_center)
    assert type(grid) is list and all(type(j) is float for j in grid)
    g = [j / 1e6 for j in grid]
    assert len(g) == 5
    assert g[0] == pytest.approx(1.0, rel=1e-12)
    assert g[-1] == pytest.approx(100.0, rel=1e-12)
    assert g[2] == pytest.approx(10.0, rel=1e-12)
    # the default grid: --decades around the centre
    g = [j / 1e6 for j in _pump_grid(_grid_flags(None, None, 5, decades=2.0), lambda: 3e6)]
    np.testing.assert_allclose(g, [0.3, 0.3 * 10**0.5, 3.0, 3 * 10**0.5, 30.0], rtol=1e-12)


def _documented_grid(lo, hi, points):
    """_pump_grid's grid as its docstring gives it: 10**(a + k*step), the last exponent log10(hi)."""
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (points - 1)
    return [10.0 ** (a + k * step) for k in range(points - 1)] + [10.0**b]


def test_pump_grid_is_documented_and_within_an_ulp_of_logspace():
    # np.logspace takes the same exponents and its own power, which may
    # round differently from the C library's by an ulp on some CPUs
    rng = np.random.default_rng(20261021)
    lo_us, hi_us = PUMP_RANGE_PER_US
    ulps = []
    for _ in range(5000):
        a = rng.uniform(math.log10(lo_us), math.log10(hi_us))
        b = rng.uniform(a, math.log10(hi_us))
        lo, hi = 10.0**a, 10.0**b
        points = int(rng.integers(2, 200))
        grid = _pump_grid(_grid_flags(lo, hi, points), _no_center)
        assert grid == _documented_grid(lo * 1e6, hi * 1e6, points)
        reference = np.logspace(math.log10(lo * 1e6), math.log10(hi * 1e6), points)
        ulps.append(np.abs(np.array(grid).view(np.int64) - reference.view(np.int64)))
    assert np.concatenate(ulps).max() <= 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lo=1.0, hi=10.0, points=1),
        dict(lo=10.0, hi=1.0, points=5),
        dict(lo=0.0, hi=1.0, points=5),  # log scan needs positive lo
        dict(lo=1.0, hi=float("inf"), points=5),
        dict(lo=float("nan"), hi=10.0, points=5),
        dict(lo=1.0, hi=float("nan"), points=5),
        dict(lo=float("-inf"), hi=1.0, points=5),
    ],
)
def test_scan_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        _pump_grid(_grid_flags(**kwargs), _no_center)


# --- CLI ------------------------------------------------------------------------


def test_cli_steady(tmp_path):
    out = tmp_path / "steady.json"
    assert run(["steady", "--config", MAIN, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["branch_count"] >= 1
    assert payload["n_photons"] < payload["n_photons_empty"]
    assert payload["config_sha256"] == load_config(MAIN).digest


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_steady_rejects_non_finite_g_frac(tmp_path, capsys, value):
    out = tmp_path / "steady.json"
    assert run(["steady", "--config", MAIN, "--out", str(out), f"--g-frac={value}"]) == 2
    assert "--g-frac must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_steady_decoupled_equals_empty(tmp_path):
    out = tmp_path / "steady0.json"
    assert run(["steady", "--config", MAIN, "--out", str(out), "--g-frac", "0"]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_photons"] == pytest.approx(payload["n_photons_empty"], rel=1e-12)


def test_cli_missing_config_is_exit_2(tmp_path):
    assert run(["steady", "--config", str(tmp_path / "nope.json"), "--out", "x.json"]) == 2


@pytest.mark.parametrize("config, g_frac", [(MAIN, None), (TRANSIT, None), (MAIN, 0.5), (MAIN, 0.0)])
def test_cli_steady_is_the_reports_arithmetic(tmp_path, monkeypatch, config, g_frac):
    # steady's photon numbers and counts are the report's, to the bit, and
    # the dark stream is lit by the same empty-cavity photon number
    out = tmp_path / "steady.json"
    flags = [] if g_frac is None else ["--g-frac", str(g_frac)]
    assert run(["steady", "--config", config, "--out", str(out), *flags]) == 0
    payload = json.loads(out.read_text())
    cfg = load_config(config)
    cavity = cfg.cavity if g_frac is None else replace(cfg.cavity, g_max=g_frac * cfg.cavity.g_max)
    assert payload["n_photons"] == stationary_photon_numbers(cfg.atom, cavity, cfg.drive)[0]
    report = snr_resonant(cfg.atom, cavity, cfg.drive)
    assert payload["n_out_empty"] == report.n_out_empty
    assert payload["n_out"] == report.n_out_atom
    lit = []

    def detected_rate(n, cav):
        lit.append(n)
        return resonant_detection._detected_rate(n, cav)

    monkeypatch.setattr(trajectory_sim, "_detected_rate", detected_rate)
    dark_rates(cfg.cavity, cfg.drive, replace(cfg.sim, dark_windows=10))
    assert lit == [payload["n_photons_empty"]]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["steady", "--config", MAIN, "--out", "{tmp}/missing/x.json"], None),
        (["scan-pump", "--config", MAIN, "--points", "3", "--out", "{tmp}/missing/x.csv"], None),
        (["homodyne-scan", "--config", NARROW, "--points", "3", "--out", "{tmp}/missing/x.csv"], None),
        (["motion-averages", "--config", TRANSIT, "--points", "3", "--out", "{tmp}/missing/x.csv"], None),
        (
            ["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--mode-index", "13",
             "--out", "{tmp}/missing/x.json"],
            None,
        ),
        (["simulate", "--config", TRANSIT, "--atoms", "1", "--out", "{tmp}/file.txt/sub"], None),
        (["simulate", "--config", TRANSIT, "--atoms", "1", "--out", "{tmp}/file.txt"], None),
        (["steady", "--config", "{tmp}", "--out", "{tmp}/x.json"], "{tmp}"),
        (["steady", "--config", "{tmp}/latin1.json", "--out", "{tmp}/x.json"], "{tmp}/latin1.json"),
    ],
    ids=[
        "steady-out-dir-missing",
        "scan-pump-out-dir-missing",
        "homodyne-scan-out-dir-missing",
        "motion-averages-out-dir-missing",
        "design-cavity-out-dir-missing",
        "simulate-out-under-a-file",
        "simulate-out-is-a-file",
        "config-is-a-directory",
        "config-not-utf8",
    ],
)
def test_cli_io_errors_are_exit_2(tmp_path, capsys, argv, bad):
    # a config that cannot be read and an output that cannot be written are
    # configuration errors, reported in one line that names the path
    (tmp_path / "file.txt").write_text("not a directory\n")
    (tmp_path / "latin1.json").write_bytes('{"atom": {"gamma_mhz": 3.0}} # \xb5s'.encode("latin-1"))
    argv = [a.format(tmp=tmp_path) for a in argv]
    bad = argv[-1] if bad is None else bad.format(tmp=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the saturated motion-averages points
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert bad in err
    assert not (tmp_path / "missing").exists()


def test_cli_scan_pump(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan-pump", "--config", MAIN, "--out", str(out), "--points", "50"]) == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if not l.startswith("# ")]
    assert any("config_sha256" in l for l in meta)
    assert data[0].startswith("j_in [1/us]")
    assert len(data) == 51  # header + 50 rows
    assert all(len(row.split(",")) == 6 for row in data[1:])


def test_reports_and_pump_scans_build_no_stationary_state(tmp_path, monkeypatch):
    # the reports take their photon number from the lower root, so the
    # 200-point scans build no StationaryState
    built = []
    init = StationaryState.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("n_photons"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(StationaryState, "__init__", spy)
    main, narrow = load_config(MAIN), load_config(NARROW)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        snr_resonant(main.atom, main.cavity, main.drive)
        homodyne_report(narrow.atom, narrow.cavity, narrow.drive)
        for command, config in (("scan-pump", MAIN), ("homodyne-scan", NARROW)):
            assert run([command, "--config", config, "--out", str(tmp_path / "scan.csv")]) == 0
    assert built == []
    # steady writes the full state of the atom; the empty cavity's is a closed form
    assert run(["steady", "--config", MAIN, "--out", str(tmp_path / "steady.json")]) == 0
    assert len(built) == 1


def test_cli_scan_pump_rejects_detuned_config(tmp_path, capsys):
    # the dispersive config cannot be scanned with the resonant estimator
    out = tmp_path / "scan.csv"
    assert run(["scan-pump", "--config", NARROW, "--out", str(out), "--points", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model/domain error: ")
    assert "numerical failure" not in err


def test_cli_homodyne_scan_rejects_resonant_atom(tmp_path, capsys):
    # delta_a = 0 in the main config: no phase to read out
    out = tmp_path / "hom.csv"
    assert run(["homodyne-scan", "--config", MAIN, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model/domain error: requires an atomic detuning")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, points, category, hits",
    [
        ("motion-averages", TRANSIT, 41, SaturationWarning, 23),
        ("homodyne-scan", {"atom": {"delta_a_over_gamma": 5.0}}, 20, SmallDetuningWarning, 20),
    ],
)
def test_cli_scan_warns_once_per_class(tmp_path, capsys, command, config, points, category, hits):
    if isinstance(config, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        config = str(path)
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", config, "--out", str(out), "--points", str(points)]) == 0
    assert [w.category for w in caught] == [category]
    assert str(caught[0].message).endswith(f" ({hits} of {points} grid points)")
    # the rows and the summary line are those of the reports themselves
    assert len(out.read_text().splitlines()) == 4 + points
    assert capsys.readouterr().out.startswith(f"wrote {out}: ")


def test_cli_scan_failing_partway_warns_before_the_error(tmp_path, capsys, monkeypatch):
    # the third grid point raises: the warnings of the first two are still
    # issued, once per class, before the error message
    calls = []

    def report(cfg, drive):
        calls.append(drive.j_in)
        if len(calls) == 3:
            raise NoPhysicalRoot("no root at the third grid point")
        warnings.warn("saturated", SaturationWarning)
        return spatial_averages(cfg.atom, cfg.cavity, drive)

    scan = cli._PUMP_SCANS["motion-averages"]
    monkeypatch.setitem(cli._PUMP_SCANS, "motion-averages", replace(scan, report=report))
    monkeypatch.setattr(
        warnings,
        "showwarning",
        lambda message, category, *a, **k: print(f"{category.__name__}: {message}", file=sys.stderr),
    )
    out = tmp_path / "mot.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code = run(["motion-averages", "--config", MAIN, "--out", str(out), "--points", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "SaturationWarning: saturated (2 of 3 grid points)",
        "numerical failure: no root at the third grid point",
    ]
    assert not out.exists()


def test_cli_non_finite_config_value_is_exit_2(tmp_path, capsys):
    # Python's json reads and writes the bare NaN literal
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"drive": {"j_in_per_us": float("nan")}}))
    assert "NaN" in cfg.read_text()
    assert run(["steady", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "drive.j_in must be finite" in capsys.readouterr().err


def test_cli_config_value_of_the_wrong_type_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"cavity": {"g_mhz": "12"}}))
    out = tmp_path / "x.json"
    assert run(["steady", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cavity.g_mhz must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["threshold", "seed", "n_atoms", "dark_windows"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), None])
def test_non_integer_sim_count_is_config_error(key, value):
    with pytest.raises(ConfigError, match=f"sim.{key} must be an integer"):
        parse_config({"sim": {key: value}})


def test_cli_scan_pump_half_bounds_is_exit_2(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        ["scan-pump", "--config", MAIN, "--out", str(out), "--points", "10", "--jmin-per-us", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-pump", "--config", MAIN, "--jmin-per-us", "1", "--jmax-per-us", "inf"],
        ["scan-pump", "--config", MAIN, "--jmin-per-us=-inf", "--jmax-per-us", "1"],
        ["scan-pump", "--config", MAIN, "--decades", "nan"],
        ["scan-pump", "--config", MAIN, "--decades", "700"],  # 10**350 overflows
        ["motion-averages", "--config", MAIN, "--jmin-per-us", "1", "--jmax-per-us", "inf"],
    ],
)
def test_cli_non_finite_scan_bounds_are_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--out", str(out)]) == 2
    assert "scan bounds must be finite" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


# each pump scan's CSV layout, written out apart from cli._PUMP_SCANS: (config, report,
# its fields, CSV header)
PUMP_SCANS = {
    "scan-pump": (
        MAIN,
        snr_resonant,
        ["n_out_empty", "n_out_atom", "snr", "m_scattered", "saturation"],
        [
            "j_in [1/us]",
            "N_out_empty [photons]",
            "N_out_atom [photons]",
            "S [dimensionless]",
            "M [photons]",
            "saturation [dimensionless]",
        ],
    ),
    "homodyne-scan": (
        NARROW,
        homodyne_report,
        ["phase_shift", "snr", "m_scattered", "n_out", "small_angle_valid"],
        [
            "j_in [1/us]",
            "phase_shift [rad]",
            "S_hom [dimensionless]",
            "M [photons]",
            "N_out [photons]",
            "small_angle_valid [bool]",
        ],
    ),
    "motion-averages": (
        MAIN,
        spatial_averages,
        ["s_bar", "m_bar", "d_bar", "delta_p", "delta_z"],
        [
            "j_in [1/us]",
            "S_bar [dimensionless]",
            "M_bar [photons]",
            "D_bar [kg^2 m^2/s^3]",
            "delta_p [hbar k]",
            "delta_z [m]",
        ],
    ),
}


@pytest.mark.parametrize(
    "command, extra, bounds",
    [
        ("scan-pump", [], lambda cfg: (saturation_pump(cfg.atom, cfg.cavity), 100.0)),
        ("scan-pump", ["--decades", "3"], lambda cfg: (saturation_pump(cfg.atom, cfg.cavity), 10**1.5)),
        ("homodyne-scan", [], lambda cfg: (dispersive_saturation_pump(cfg.atom, cfg.cavity), 100.0)),
        ("motion-averages", [], lambda cfg: (cfg.drive.j_in, 10.0)),
        ("motion-averages", ["--jmin-per-us", "0.5", "--jmax-per-us", "40"], None),
    ],
)
def test_cli_pump_scans_match_their_reports(tmp_path, capsys, command, extra, bounds):
    config, report, fields, header = PUMP_SCANS[command]
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        assert run([command, "--config", config, "--out", str(out), "--points", "5", *extra]) == 0
        cfg = load_config(config)
        if bounds is None:
            lo, hi = 0.5e6, 40e6
        else:
            center, half = bounds(cfg)
            lo, hi = center / half, center * half
        grid = _documented_grid(lo, hi, 5)
        reps = [report(cfg.atom, cfg.cavity, DriveParams(j_in=j, tau=cfg.drive.tau)) for j in grid]
    lines = out.read_text().splitlines()
    assert lines[:3] == [
        "# version: 0.1.0",
        f"# command: {command}",
        f"# config_sha256: {cfg.digest}",
    ]
    assert lines[3] == ",".join(header)
    expected = [
        ",".join(_fmt(v) for v in (j / 1e6, *(getattr(rep, f) for f in fields)))
        for j, rep in zip(grid, reps)
    ]
    assert lines[4:] == expected
    if command == "motion-averages":
        summary = "5 pump points"
    else:
        best = max(range(5), key=lambda i: reps[i].snr)
        label = "S" if command == "scan-pump" else "S_hom"
        summary = f"5 points, max {label}={reps[best].snr:.4g} at j_in={grid[best] / 1e6:.4g}/us"
    assert capsys.readouterr().out == f"wrote {out}: {summary}\n"


def test_cli_homodyne_scan(tmp_path):
    out = tmp_path / "hom.csv"
    assert run(
        ["homodyne-scan", "--config", NARROW, "--out", str(out), "--points", "20"]
    ) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("# ")]
    assert len(data) == 21


def test_cli_motion_averages(tmp_path):
    out = tmp_path / "mot.csv"
    # the top of the default grid (10x the config pump) saturates the main cavity
    with pytest.warns(SaturationWarning):
        assert run(
            ["motion-averages", "--config", MAIN, "--out", str(out), "--points", "11"]
        ) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("# ")]
    assert len(data) == 12


def test_cli_scan_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["scan-pump", "--config", MAIN, "--out", str(out), "--points", "40"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_simulate_thread_invariance(tmp_path):
    outs = []
    for name, threads in [("t1", "1"), ("t2", "2")]:
        out = tmp_path / name
        code = run(
            [
                "simulate",
                "--config",
                TRANSIT,
                "--out",
                str(out),
                "--atoms",
                "6",
                "--threads",
                threads,
            ]
        )
        assert code == 0
        outs.append(out)
    for fname in ("trajectories.csv", "clicks.csv", "report.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    assert report["n_atoms"] == 6
    assert 0.0 <= report["efficiency"] <= 1.0
    assert report["dark_rate_ci_per_s"][0] <= report["dark_rate_per_s"]
    assert report["config"]["sim"]["n_atoms"] == 6


def test_cli_simulate_threads_start_no_process_pool(tmp_path):
    probe = (
        "import sys; from cavdet.cli import run; "
        f"code = run(['simulate', '--config', {TRANSIT!r}, '--out', {str(tmp_path)!r}, "
        "'--atoms', '6', '--threads', '2']); "
        "print(code, 'concurrent.futures.process' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize(
    "flag, value", [("--threads", "0"), ("--threads", "-7"), ("--decimate", "-4"), ("--decimate", "0")]
)
def test_cli_simulate_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "sim"
    argv = ["simulate", "--config", TRANSIT, "--out", str(out), "--atoms", "2"]
    assert run(argv + [f"{flag}={value}"]) == 2
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["scan-pump", "--config", MAIN, "--points", "1000001"], "--points"),
        (["motion-averages", "--config", TRANSIT, "--points", "1000001"], "--points"),
        (["simulate", "--config", TRANSIT, "--atoms", "10000001"], "sim.n_atoms"),
    ],
)
def test_cli_rejects_sizes_past_their_maximum(tmp_path, capsys, argv, name):
    # just past the stated maximum, so nothing depends on what numpy can allocate
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be at most ")
    assert err.count("\n") == 1
    assert not out.exists()


def _transit_config(tmp_path, **sim):
    raw = json.loads(Path(TRANSIT).read_text())
    raw["sim"].update(sim)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_sim_config_bounds_the_step_count():
    dt = 1e-6
    SimConfig(dt=dt, window=20 * dt, duration=params._MAX_STEPS * dt)
    with pytest.raises(ConfigError, match="sim.duration/sim.dt must be at most"):
        SimConfig(dt=dt, window=20 * dt, duration=(params._MAX_STEPS + 1) * dt)


def _dark_windows_past_the_cap():
    # the fewest whole windows whose expected dark clicks exceed the cap
    cfg = load_config(TRANSIT)
    empty = resonant_detection._empty_photons(cfg.cavity, cfg.drive.j_in)
    rate0 = resonant_detection._detected_rate(empty, cfg.cavity)
    cap, window = trajectory_sim._MAX_DARK_CLICKS, cfg.sim.window
    windows = math.floor(cap / (rate0 * window)) - 1
    while rate0 * (windows * window) <= cap:
        windows += 1
    return windows


def test_dark_stream_is_bounded_before_any_draw(monkeypatch):
    def no_draw(seed):
        raise AssertionError("the dark stream drew before its size was checked")

    monkeypatch.setattr(trajectory_sim, "_dark_rng", no_draw)
    cfg = load_config(TRANSIT)
    windows = _dark_windows_past_the_cap()
    with pytest.raises(ConfigError, match=f"sim.dark_windows={windows} expects 1e\\+08 dark"):
        dark_rates(cfg.cavity, cfg.drive, replace(cfg.sim, dark_windows=windows))
    with pytest.raises(AssertionError, match="drew before"):
        dark_rates(cfg.cavity, cfg.drive, replace(cfg.sim, dark_windows=windows - 1))


@pytest.mark.parametrize(
    "sim, name",
    [
        ({"duration_us": 0.05 * (params._MAX_STEPS + 1)}, "sim.duration/sim.dt"),
        ({"dark_windows": _dark_windows_past_the_cap()}, "sim.dark_windows"),
        ({"dark_windows": 10**15}, "sim.dark_windows"),
    ],
)
def test_cli_simulate_rejects_a_run_past_its_size_caps(tmp_path, capsys, monkeypatch, sim, name):
    # checked before the arrays exist, so no allocation of the stated size is asked for
    monkeypatch.setattr(trajectory_sim, "_dark_rng", None)
    out = tmp_path / "out"
    config = _transit_config(tmp_path, **sim)
    assert run(["simulate", "--config", config, "--atoms", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}")
    assert err.count("\n") == 1
    assert not (out / "report.json").exists() and not (out / "trajectories.csv").exists()


def _stride_for(windows, window, duration):
    # the stride that fits exactly this many windows into duration
    stride = (duration - window) / (windows - 1)
    assert params._window_count(window, stride, duration) == windows
    return stride


def test_sim_config_bounds_the_window_counts():
    cap, window, duration = params._MAX_TRANSIT_WINDOWS, 8 * US, 100 * US
    SimConfig(stride=_stride_for(cap, window, duration), dark_windows=1)
    with pytest.raises(ConfigError, match=f"sim.stride_us=.* makes {cap + 1} windows per transit"):
        SimConfig(stride=_stride_for(cap + 1, window, duration), dark_windows=1)
    # with the stride one window, the dark stream has dark_windows windows
    cap = params._MAX_WINDOWS
    assert _stride_for(cap, window, cap * window) == window
    SimConfig(stride=window, dark_windows=cap)
    with pytest.raises(ConfigError, match=f"sim.dark_windows={cap + 1} at sim.stride_us=8 makes"):
        SimConfig(stride=window, dark_windows=cap + 1)


def test_window_counts_are_bounded_before_any_window_exists(monkeypatch):
    def no_windows(window, stride, duration):
        raise AssertionError("windows were laid out before their count was checked")

    monkeypatch.setattr(trajectory_sim, "_window_starts", no_windows)
    cfg = load_config(TRANSIT)
    with pytest.raises(ConfigError, match="windows per transit"):
        replace(cfg.sim, stride=1e-15)
    with pytest.raises(ConfigError, match="dark-stream windows"):
        replace(cfg.sim, stride=cfg.sim.window, dark_windows=params._MAX_WINDOWS + 1)
    # at the dark cap a dim pump expects 2,000 clicks over the 800 s stream,
    # which gets as far as laying out its windows
    sim = replace(cfg.sim, stride=cfg.sim.window, dark_windows=params._MAX_WINDOWS)
    with pytest.raises(AssertionError, match="laid out before"):
        dark_rates(cfg.cavity, replace(cfg.drive, j_in=1e-6 * cfg.drive.j_in), sim)


@pytest.mark.parametrize(
    "sim, name",
    [
        ({"stride_us": 1e-9}, "sim.stride_us"),
        ({"stride_us": 8.0, "dark_windows": params._MAX_WINDOWS + 1}, "sim.dark_windows"),
    ],
)
def test_cli_simulate_rejects_a_window_count_past_its_cap(tmp_path, capsys, monkeypatch, sim, name):
    monkeypatch.setattr(trajectory_sim, "_window_starts", None)
    out = tmp_path / "out"
    config = _transit_config(tmp_path, **sim)
    assert run(["simulate", "--config", config, "--atoms", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}")
    assert err.count("\n") == 1
    assert not (out / "report.json").exists()


def test_cli_simulate_streamed_rows_match_per_value_format(tmp_path):
    # reference: one _fmt call per value, as the rows were built before streaming
    out = tmp_path / "sim"
    argv = ["simulate", "--config", TRANSIT, "--out", str(out), "--atoms", "3", "--seed", "2"]
    assert run(argv + ["--decimate", "7"]) == 0
    cfg = load_config(TRANSIT)
    traj, clicks = [], []

    def sink(index, rec):
        for i in range(0, rec.times.size, 7):
            x, y, z = rec.position[i] / UM
            values = (rec.times[i] / US, x, y, z, rec.n_photons[i])
            traj.append(f"{index}," + ",".join(_fmt(v) for v in values))
        clicks.extend(f"{index},{_fmt(t / US)}" for t in rec.click_times)

    sim = replace(cfg.sim, n_atoms=3, seed=2)
    run_ensemble(cfg.atom, cfg.cavity, cfg.drive, cfg.guide, sim, record_sink=sink)
    for name, rows in (("trajectories.csv", traj), ("clicks.csv", clicks)):
        lines = (out / name).read_bytes().decode().split("\n")
        assert lines[-1] == ""
        assert [l for l in lines[:-1] if not l.startswith("# ")][1:] == rows


@pytest.mark.parametrize(
    "key, value", [("window_us", 7.7), ("window_us", 8), ("threshold", 11.0)]
)
def test_cli_steady_and_simulate_stamp_one_digest(tmp_path, key, value):
    raw = json.loads(Path(TRANSIT).read_text())
    raw["sim"].update({"n_atoms": 2, key: value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert run(["steady", "--config", str(config), "--out", str(tmp_path / "steady.json")]) == 0
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    digest = json.loads((tmp_path / "steady.json").read_text())["config_sha256"]
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["config_sha256"] == digest == parse_config(raw).digest
    # the top-level values are the file's own, 11.0 as 11.0 and 8 as 8
    for name in ("window_us", "threshold"):
        assert repr(report[name]) == repr(report["config"]["sim"][name]) == repr(raw["sim"][name])


def test_cli_simulate_flags_write_what_a_config_holding_them_writes(tmp_path):
    raw = json.loads(Path(TRANSIT).read_text())
    raw["sim"].update({"n_atoms": 2, "window_us": 7.7})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    assert run(["simulate", "--config", str(config), "--out", str(by_file)]) == 0
    argv = ["simulate", "--config", TRANSIT, "--out", str(by_flags)]
    assert run(argv + ["--atoms", "2", "--window-us", "7.7"]) == 0
    for name in ("trajectories.csv", "clicks.csv", "report.json"):
        assert (by_file / name).read_bytes() == (by_flags / name).read_bytes()
    # and what they write is the config file's own record, as steady stamps it
    report = json.loads((by_flags / "report.json").read_text())
    cfg = load_config(config)
    assert (report["config"], report["config_sha256"]) == (cfg.resolved, cfg.digest)


@pytest.mark.parametrize(
    "guide", [{"temperature_uk": 3e6}, {"mean_velocity_m_s": 1000.0}], ids=["hot", "fast"]
)
def test_cli_simulate_step_too_coarse_for_its_guide_is_a_config_error(tmp_path, capsys, guide):
    # the config's dt against its own guide and atom: this exited 3 as a
    # numerical failure; the library still raises StepTooLarge
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"guide": guide}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", str(config), "--out", str(out), "--atoms", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sim.dt_us=0.05 ") and "(bound " in err
    assert not out.exists()
    cfg = load_config(config)
    with pytest.raises(StepTooLarge):
        run_ensemble(cfg.atom, cfg.cavity, cfg.drive, cfg.guide, replace(cfg.sim, n_atoms=2))


def test_cli_simulate_failure_leaves_earlier_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sim"
    argv = ["simulate", "--config", TRANSIT, "--out", str(out), "--atoms", "2"]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def fail_after_first_record(*args, record_sink, **kwargs):
        def sink(index, record):
            record_sink(index, record)
            raise StepTooLarge("forced after the first trajectory")

        return run_ensemble(*args, record_sink=sink, **kwargs)

    monkeypatch.setattr(trajectory_sim, "run_ensemble", fail_after_first_record)
    assert run(argv + ["--seed", "5"]) == 3
    assert "forced after the first trajectory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class _FullDisk:
    """A file whose writes store half their text and then fail, as on a full disk."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, text):
        self.file.write(text[: len(text) // 2])
        self.file.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _fill_disk_for(monkeypatch, suffix):
    """cli's open gives a _FullDisk file for every path that ends in suffix."""

    def full_disk_open(path, *args, **kwargs):
        file = open(path, *args, **kwargs)
        return _FullDisk(file) if str(path).endswith(suffix) else file

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)


def test_cli_simulate_report_failure_leaves_the_earlier_three_files(tmp_path, monkeypatch, capsys):
    # the report is written last: its failure must not leave this run's CSVs
    # beside the earlier run's report
    out = tmp_path / "sim"
    argv = ["simulate", "--config", TRANSIT, "--out", str(out), "--atoms", "2"]
    assert run(argv + ["--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["clicks.csv", "report.json", "trajectories.csv"]
    capsys.readouterr()
    _fill_disk_for(monkeypatch, "report.json.partial")
    assert run(argv + ["--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


SINGLE_FILE_COMMANDS = {
    "steady": ["--config", MAIN],
    "scan-pump": ["--config", MAIN, "--points", "3"],
    "homodyne-scan": ["--config", NARROW, "--points", "3"],
    "motion-averages": ["--config", MAIN, "--points", "3"],
    "design-cavity": ["--core-um", "5", "--length-mm", "10.4", "--mode-index", "13"],
}


@pytest.mark.parametrize("command", SINGLE_FILE_COMMANDS)
def test_cli_failed_write_leaves_the_earlier_file(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "out.txt"
    argv = [command, *SINGLE_FILE_COMMANDS[command], "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the saturated motion-averages points
        assert run(argv) == 0
        before = out.read_bytes()
        capsys.readouterr()
        _fill_disk_for(monkeypatch, ".partial")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [out]


def test_cli_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "real" / "design.json"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "design.json"
    link.symlink_to(target)
    argv = ["design-cavity", *SINGLE_FILE_COMMANDS["design-cavity"], "--out", str(link)]
    assert run(argv) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["cavity"]
    assert sorted(target.parent.iterdir()) == [target]


@pytest.mark.parametrize("decimate", [1, 7, 5000])
@pytest.mark.parametrize("j_in_per_us", [10.0, 1e-9])
def test_cli_simulate_csv_rows_are_pinned(tmp_path, decimate, j_in_per_us):
    # reference: one "%d," and one "%.12g" per value, row by row; the tiny
    # pump gives atoms with no clicks, and 5000 exceeds the 2,000 steps
    raw = json.loads(Path(TRANSIT).read_text())
    raw["drive"]["j_in_per_us"] = j_in_per_us
    raw["sim"].update({"n_atoms": 3, "seed": 2, "include_recoil": False})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    assert run(argv + ["--decimate", str(decimate)]) == 0
    cfg = load_config(config)
    traj, clicks, click_counts = [], [], []

    def sink(index, rec):
        for i in range(0, rec.times.size, decimate):
            x, y, z = rec.position[i] / UM
            values = (rec.times[i] / US, x, y, z, rec.n_photons[i])
            traj.append("%d," % index + ",".join("%.12g" % v for v in values))
        clicks.extend("%d," % index + "%.12g" % (t / US) for t in rec.click_times)
        click_counts.append(rec.click_times.size)

    run_ensemble(cfg.atom, cfg.cavity, cfg.drive, cfg.guide, cfg.sim, record_sink=sink)
    assert len(traj) == 3 * len(range(0, 2001, decimate))
    assert (min(click_counts) == 0) == (j_in_per_us < 1.0)
    for name, rows in (("trajectories.csv", traj), ("clicks.csv", clicks)):
        lines = (out / name).read_bytes().decode().split("\n")
        assert lines[-1] == ""
        assert [l for l in lines[:-1] if not l.startswith("# ")][1:] == rows


def test_cli_simulate_sink_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    out = tmp_path / "sim"

    def sink_gets_a_bad_record(*args, record_sink, **kwargs):
        record_sink(0, None)  # the sink itself raises on it

    monkeypatch.setattr(trajectory_sim, "run_ensemble", sink_gets_a_bad_record)
    with pytest.raises(AttributeError):
        run(["simulate", "--config", TRANSIT, "--out", str(out), "--atoms", "2"])
    assert out.is_dir() and list(out.iterdir()) == []


def test_cli_design_cavity(tmp_path):
    out = tmp_path / "design.json"
    code = run(
        [
            "design-cavity",
            "--core-um",
            "5",
            "--length-mm",
            "10.4",
            "--mode-index",
            "13",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["w0_um"] == pytest.approx(2.9242, rel=1e-3)
    assert payload["gap_um"] == pytest.approx(5.0792, rel=1e-3)
    assert payload["kappa_gap_mhz"] == pytest.approx(6.2363, rel=1e-3)
    assert payload["g_mhz"] == pytest.approx(12.1996, rel=1e-3)
    assert payload["kappa_t_mhz"] == pytest.approx(7.6464, rel=1e-3)
    assert payload["cavity"]["kappa_loss_mhz"] == pytest.approx(6.2363, rel=1e-3)


def test_cli_design_cavity_length_conventions_agree(tmp_path):
    by_mm = tmp_path / "mm.json"
    by_hw = tmp_path / "hw.json"
    base = ["design-cavity", "--core-um", "5", "--mode-index", "13"]
    assert run(base + ["--length-mm", "10.4", "--out", str(by_mm)]) == 0
    assert run(base + ["--length-half-waves", "40000", "--out", str(by_hw)]) == 0
    a = json.loads(by_mm.read_text())
    b = json.loads(by_hw.read_text())
    assert b["inputs"]["length_mm"] == pytest.approx(a["inputs"]["length_mm"], rel=1e-12)
    assert b["g_mhz"] == pytest.approx(a["g_mhz"], rel=1e-9)
    assert b["gap_um"] == pytest.approx(a["gap_um"], rel=1e-9)


@pytest.mark.parametrize(
    "extra",
    [
        ["--length-mm", "10.4", "--mode-index", "13", "--gap-um", "5.08"],  # both gap pickers
        ["--length-mm", "10.4"],  # no gap picker
        ["--length-mm", "10.4", "--length-half-waves", "40000", "--mode-index", "13"],
        ["--mode-index", "13"],  # no length
    ],
)
def test_cli_design_cavity_exclusive_options(tmp_path, extra):
    out = tmp_path / "design.json"
    assert run(["design-cavity", "--core-um", "5", "--out", str(out)] + extra) == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--core-um", "inf"),
        ("--core-um", "-inf"),
        ("--length-mm", "nan"),
        ("--transmission", "nan"),
        ("--extra-loss-mhz", "nan"),
        ("--extra-loss-mhz", "inf"),
        ("--extra-loss-mhz", "-5"),  # negative: less loss than the fiber gap alone
    ],
)
def test_cli_design_cavity_rejects_non_finite(tmp_path, capsys, flag, value):
    args = {"--core-um": "5", "--length-mm": "10.4", flag: value}
    argv = ["design-cavity", "--mode-index", "13", "--out", str(tmp_path / "design.json")]
    assert run(argv + [f"{key}={val}" for key, val in args.items()]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "design.json").exists()


@pytest.mark.parametrize(
    "extra, half_gap_um, mode_index, extra_loss_mhz",
    [
        (["--mode-index", "13"], 0.0, 13, 0.0),
        (["--gap-um", "5.1"], 2.55, None, 0.0),
        (["--mode-index", "13", "--extra-loss-mhz", "2"], 0.0, 13, 2.0),
    ],
)
def test_cli_design_cavity_section_is_the_bridge(
    tmp_path, extra, half_gap_um, mode_index, extra_loss_mhz
):
    out = tmp_path / "design.json"
    argv = ["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--out", str(out)]
    assert run(argv + extra) == 0
    design = FiberCavityDesign(
        fiber_length=10.4 * 1e-3, half_gap=half_gap_um * UM, core_radius=2.5 * UM
    )
    derived = derive(design, AtomParams(gamma=3.0 * MHZ), mode_index=mode_index)
    cavity = design_to_cavity(derived, design.fiber_length, extra_loss_mhz * MHZ)
    assert json.loads(out.read_text())["cavity"] == {
        "g_mhz": cavity.g_max / MHZ,
        "kappa_t_mhz": cavity.kappa_t / MHZ,
        "kappa_loss_mhz": cavity.kappa_loss / MHZ,
        "delta_c_mhz": cavity.delta_c / MHZ,
        "waist_um": cavity.waist / UM,
        "length_mm": cavity.length / 1e-3,
    }


# finite inputs that overflowed (exit 1), failed as NoPhysicalRoot (exit 3) or wrote
# Infinity into design.json: (arguments, config overrides or None, the input named)
_OUT_OF_RANGE = [
    *(
        (["steady"], {section: {key: value}}, f"{section}.{key}")
        for section, key, value in [
            ("cavity", "g_mhz", 1e300),
            ("atom", "gamma_mhz", 1e-300),
            ("atom", "gamma_mhz", 1e300),
            ("cavity", "kappa_t_mhz", 1e300),
            ("atom", "delta_a_over_gamma", 1e300),
            ("cavity", "delta_c_mhz", 1e300),
            ("drive", "j_in_per_us", 1e300),
        ]
    ),
    (["steady", "--g-frac", "1e160"], {}, "--g-frac"),
    (["simulate", "--atoms", "2"], {"cavity": {"g_mhz": 1e300}}, "cavity.g_mhz"),
    (["scan-pump", "--jmin-per-us", "1", "--jmax-per-us", "1e300"], {}, "--jmax-per-us"),
    (["scan-pump", "--decades", "600"], {}, "--decades"),
    (["design-cavity", "--core-um", "1e300", "--length-mm", "10.4"], None, "core_radius"),
    (["design-cavity", "--core-um", "5", "--length-mm", "1e-300"], None, "fiber_length"),
    (["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--lambda-nm", "1e-300"], None,
     "wavelength0"),  # a math domain error (exit 1)
    (["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--gamma-mhz", "1e300"], None,
     "gamma"),
    # n_core**2 overflowed in v_number while the design was built
    (["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--n-core", "1e200"], None,
     "n_core=1e+200"),
    (["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--n-core", "1e200", "--n-clad",
      "5e199"], None, "n_clad=5e+199"),
    # --length-half-waves divided by the index unchecked: a ZeroDivisionError
    # (exit 1), or a non-finite fiber_length named in its place
    *(
        (["design-cavity", "--core-um", "5", "--length-half-waves", "40000", "--n-core", n_core],
         None, "--n-core")
        for n_core in ("0", "nan", "1e-320")
    ),
    # and by the wavelength: a non-finite fiber_length named in its place
    *(
        (["design-cavity", "--core-um", "5", "--length-half-waves", "40000", "--lambda-nm", lam],
         None, "--lambda-nm")
        for lam in ("nan", "inf", "0")
    ),
]


@pytest.mark.parametrize(
    "argv, overrides, name",
    _OUT_OF_RANGE,
    ids=[
        " ".join(argv) + "".join(f" {s}.{k}={v:g}" for s, d in (ov or {}).items() for k, v in d.items())
        for argv, ov, _ in _OUT_OF_RANGE
    ],
)
def test_cli_out_of_range_input_is_exit_2(tmp_path, capsys, argv, overrides, name):
    out = tmp_path / "out"
    if overrides is None:
        argv = argv + ["--mode-index", "13"]
    else:
        raw = json.loads(Path(TRANSIT).read_text())
        for section, values in overrides.items():
            raw[section].update(values)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        argv = argv + ["--config", str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert not out.exists()


def test_cli_design_whose_v_number_underflows_is_exit_2(tmp_path, capsys):
    # V underflows to 0, so V**-1.5 in the waist raised ZeroDivisionError (exit 1)
    out = tmp_path / "design.json"
    argv = ["design-cavity", "--core-um", "1e-30", "--lambda-nm", "1e300", "--length-mm", "10.4"]
    assert run(argv + ["--mode-index", "13", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "outside the fiber-gap model's float range" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan-pump", "homodyne-scan"])
def test_cli_pump_scans_without_coupling(tmp_path, capsys, command):
    # g = 0 is in range, but its saturation pump, the default grid's centre,
    # divided by zero (exit 1) even when the grid was given
    raw = {"cavity": {"g_mhz": 0.0}, "atom": {"delta_a_over_gamma": 200.0}}
    if command == "scan-pump":
        del raw["atom"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "scan.csv"
    argv = [command, "--config", str(config), "--out", str(out), "--points", "5"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "cavity.g_mhz" in err and "--jmin-per-us" in err
    assert not out.exists()
    assert run(argv + ["--jmin-per-us", "1", "--jmax-per-us", "10"]) == 0
    rows = np.loadtxt(out, delimiter=",", comments="#", skiprows=4)
    s = rows[:, 3 if command == "scan-pump" else 2]
    # an uncoupled atom: S is 0 exactly, and no pump rate is named the best
    assert s.tolist() == [0.0] * 5
    name = "S" if command == "scan-pump" else "S_hom"
    assert capsys.readouterr().out == f"wrote {out}: 5 points, {name}=0 at every pump rate\n"


def test_solver_is_finite_at_the_corners_of_its_ranges():
    # the ranges are set so that every power the solver forms stays finite
    rate_lo, rate_hi = RANGES["cavity.g_mhz"]
    pump_lo, pump_hi = RANGES["drive.j_in_per_us"]
    for gamma, g, kt, kl, da, dc, j in itertools.product(
        (rate_lo, rate_hi),
        (rate_lo, rate_hi),
        (rate_lo, rate_hi),
        (0.0, rate_lo, rate_hi),
        (0.0, rate_hi, -rate_hi),
        (0.0, rate_hi, -rate_hi),
        (pump_lo, pump_hi),
    ):
        cfg = parse_config(
            {
                "atom": {"gamma_mhz": gamma, "delta_a_over_gamma": da},
                "cavity": {"g_mhz": g, "kappa_t_mhz": kt, "kappa_loss_mhz": kl, "delta_c_mhz": dc},
                "drive": {"j_in_per_us": j},
            }
        )
        state = solve_stationary(cfg.atom, cfg.cavity, cfg.drive)
        assert all(map(math.isfinite, (state.n_photons, state.rho11, state.gamma_eff, state.light_shift)))


@pytest.mark.parametrize("name", sorted(RANGES))
def test_config_range_ends_are_kept_and_beyond_them_rejected(name):
    section, key = name.split(".")
    lo, hi = RANGES[name]
    for value in (lo, hi):
        assert parse_config({section: {key: value}}).resolved[section][key] == value
    for value in (0.5 * lo, 2.0 * hi):
        with pytest.raises(ConfigError, match=name):
            parse_config({section: {key: value}})
