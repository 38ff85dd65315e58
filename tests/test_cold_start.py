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
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out")]
    if command != "steady":
        argv += ["--points", "3"]
    loaded = _loaded_by(argv)
    assert {"numpy", "config", "steady_state"} <= loaded
    assert not loaded & {"trajectory_sim", "fiber_cavity"}


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
