"""What a cold start loads: ``import cavdet`` and each command, in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
# every module of the package but cli, which is not a home of a public name
SUBMODULES = sorted(
    p.stem for p in (SRC / "cavdet").glob("*.py") if p.stem not in ("__init__", "cli")
)


def _fresh(code: str, *argv: str) -> dict:
    """Run code in a fresh interpreter; the JSON value it prints last, parsed."""
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_by(argv: list[str]) -> set[str]:
    """The cavdet submodules and numpy loaded by one command run through cli.run.

    No command may load scipy or a process pool.
    """
    probe = (
        "import json, sys\n"
        "from cavdet.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "mods = [m for m in sys.modules if m == 'numpy' or m.startswith('cavdet.')\n"
        "        or m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process']\n"
        "print(json.dumps({'code': code, 'modules': mods}))\n"
    )
    ran = _fresh(probe, *argv)
    assert ran["code"] == 0
    loaded = {m.removeprefix("cavdet.") for m in ran["modules"]}
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert "concurrent.futures.process" not in loaded
    return loaded


def test_import_cavdet_loads_no_submodule_and_no_numpy():
    probe = "import json, sys, cavdet; print(json.dumps(sorted(sys.modules)))"
    loaded = _fresh(probe)
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("cavdet")] == ["cavdet"]


def test_design_cavity_loads_no_numpy_and_no_solver(tmp_path):
    argv = ["design-cavity", "--core-um", "5", "--length-mm", "10.4", "--mode-index", "13"]
    loaded = _loaded_by([*argv, "--out", str(tmp_path / "design.json")])
    assert "fiber_cavity" in loaded
    assert "numpy" not in loaded
    solver = {
        "steady_state", "trajectory_sim", "config", "optimize",
        "resonant_detection", "homodyne_detection", "motion",
    }
    assert not loaded & solver


# the design commands' arguments in perfbench's design-study workload
_GRID_FLAGS = {
    "homodyne-scan": ["--jmin-per-us", "5", "--jmax-per-us", "500", "--points", "201"],
}


@pytest.mark.parametrize(
    "command, config",
    [
        ("steady", "main_cavity.json"),
        ("scan-pump", "main_cavity.json"),
        ("homodyne-scan", "narrow_cavity.json"),
        ("motion-averages", "transit.json"),
    ],
)
def test_solver_commands_load_no_transit_and_no_fiber(tmp_path, command, config):
    argv = [command, "--config", str(CONFIGS / config), *_GRID_FLAGS.get(command, [])]
    loaded = _loaded_by([*argv, "--out", str(tmp_path / "out")])
    assert {"config", "steady_state"} <= loaded
    assert "numpy" not in loaded
    assert not loaded & {"trajectory_sim", "fiber_cavity"}


# main cavity, 2 photons/us: stationary_scan at g = 0, 0.3 g_max and g_max,
# and optimal_kappa_t's (kappa_t, S), as computed with numpy and best_pump's
# grid loaded when their modules were imported
_SCAN_PINNED = [0.0117892550438441, 0.0054364635881973995, 0.0002986576748735691]
_KAPPA_T_OPTIMUM_PINNED = (16227765.347156016, 34.13690365853948)


def test_scalar_modules_load_no_numpy_until_an_array_is_made():
    # the first batched scan and the first kappa_t search import numpy and
    # build best_pump's grid in this process; they must give what a process
    # that has both already gives
    probe = (
        "import json, sys\n"
        "from cavdet import config, homodyne_detection, motion, optimize, resonant_detection\n"
        "from cavdet import steady_state\n"
        "from cavdet.params import MHZ, US, AtomParams, CavityParams, DriveParams\n"
        "imported = 'numpy' in sys.modules\n"
        "cavity = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)\n"
        "drive = DriveParams(j_in=2e6, tau=10 * US)\n"
        "g = [0.0, 0.3 * cavity.g_max, cavity.g_max]\n"
        "scan = steady_state.stationary_scan(AtomParams(), cavity, drive, g).tolist()\n"
        "opt = resonant_detection.optimal_kappa_t(AtomParams(), cavity, drive)\n"
        "print(json.dumps({'imported': imported, 'scan': [x.hex() for x in scan],\n"
        "                  'opt': [float(opt.kappa_t).hex(), float(opt.snr).hex()]}))\n"
    )
    ran = _fresh(probe)
    assert not ran["imported"]
    from cavdet import MHZ, US, AtomParams, CavityParams, DriveParams, optimal_kappa_t
    from cavdet.steady_state import stationary_scan

    cavity = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)
    drive = DriveParams(j_in=2e6, tau=10 * US)
    scan = stationary_scan(AtomParams(), cavity, drive, [0.0, 0.3 * cavity.g_max, cavity.g_max])
    opt = optimal_kappa_t(AtomParams(), cavity, drive)
    assert [float.fromhex(x) for x in ran["scan"]] == scan.tolist()
    assert [float.fromhex(x) for x in ran["opt"]] == [opt.kappa_t, opt.snr]
    assert scan.tolist() == pytest.approx(_SCAN_PINNED, rel=1e-12)
    assert (opt.kappa_t, opt.snr) == pytest.approx(_KAPPA_T_OPTIMUM_PINNED, rel=1e-12)


def test_motion_averages_stderr_names_no_source_line(tmp_path):
    # under the default warning filters, in a fresh interpreter: the warning
    # line names no checkout path and no line of cli.py, and echoes no source
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    out = subprocess.run(
        [sys.executable, "-m", "cavdet.cli", "motion-averages", "--config",
         str(CONFIGS / "transit.json"), "--out", str(tmp_path / "m.csv")],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0
    assert out.stderr == (
        "<cavdet>:0: SaturationWarning: antinode saturation 0.112 exceeds 0.1; the "
        "low-saturation motion formulas are extrapolating (23 of 41 grid points)\n"
    )


def test_simulate_loads_no_fiber_homodyne_or_motion(tmp_path):
    config = str(CONFIGS / "transit.json")
    argv = ["simulate", "--config", config, "--atoms", "2", "--threads", "2"]
    loaded = _loaded_by([*argv, "--out", str(tmp_path)])
    assert "trajectory_sim" in loaded
    assert not loaded & {"fiber_cavity", "homodyne_detection", "motion"}


def test_one_public_name_binds_them_all():
    probe = (
        "import json, cavdet\n"
        "before = [n for n in cavdet.__all__ if n in vars(cavdet)]\n"
        "cavdet.MHZ\n"
        "unbound = [n for n in cavdet.__all__ if n not in vars(cavdet)]\n"
        "print(json.dumps({'before': before, 'unbound': unbound}))\n"
    )
    assert _fresh(probe) == {"before": [], "unbound": []}


def test_submodules_are_attributes_after_a_bare_import():
    probe = (
        "import json, sys, cavdet\n"
        "names = [getattr(cavdet, m).__name__ for m in sys.argv[1:]]\n"
        "print(json.dumps({'names': names, 'bound': 'MHZ' in vars(cavdet)}))\n"
    )
    read = _fresh(probe, *SUBMODULES)
    assert read["names"] == [f"cavdet.{m}" for m in SUBMODULES]
    assert not read["bound"]  # a module read binds no public name
