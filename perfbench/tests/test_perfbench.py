"""The benchmark's own tests: tiny runs of every workload, metric names, tampering.

Run with ``python -m pytest perfbench/tests``; they take one to two minutes.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common
import sweep
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_tiny_and_prints_every_metric(workload, trace):
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert result["failed"] == 0, detail["failures"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "cavdet", "seed"):
        assert key in detail["context"]


def _run(tmp_path):
    return workloads.Run(root=ROOT, work=tmp_path, seed=5, tiny=True)


def test_tampered_transit_report_is_a_failed_operation(tmp_path):
    run = _run(tmp_path)
    wl = workloads.WORKLOADS["transit-ballistic"]()
    wl.prepare(run)
    outs = [tmp_path / f"sim{i}" for i in range(3)]
    for out in outs:
        res = common.run_child(common.cli_argv(*wl._argv(run, 1, out)), ROOT, tmp_path)
        assert res.returncode == 0, res.stderr
    assert wl.check_outputs(run, "clean", 0, outs[0]) is not None
    assert (run.attempted, run.failed) == (1, 0)

    # a value edited in place: no longer consistent with the detection list
    report = json.loads((outs[1] / "report.json").read_text())
    report["efficiency"] += 0.1
    (outs[1] / "report.json").write_text(json.dumps(report))
    wl.check_outputs(run, "edited efficiency", 0, outs[1])
    assert (run.attempted, run.failed) == (2, 1)

    # an edit the bands cannot see still breaks byte-identity
    text = (outs[2] / "report.json").read_text()
    (outs[2] / "report.json").write_text(text.replace('"version"', '"versionx"'))
    wl.check_outputs(run, "edited key", 0, outs[2])
    assert (run.attempted, run.failed) == (3, 2)


def test_tampered_design_output_is_a_failed_operation(tmp_path):
    run = _run(tmp_path)
    wl = workloads.DesignStudy()
    wl.prepare(run)
    command, path, argv = workloads.design_argvs(ROOT, tmp_path)[-1]
    assert command == "design-cavity"
    assert workloads._cli(argv) == 0
    wl.check_command(run, "clean", command, path, 0)
    design = json.loads(path.read_text())
    design["g_mhz"] *= 1.05
    path.write_text(json.dumps(design))
    wl.check_command(run, "edited", command, path, 0)
    assert (run.attempted, run.failed) == (2, 1)


def test_perturbed_root_is_a_failed_operation(tmp_path):
    run = _run(tmp_path)
    wl = workloads.SolverSweep()
    wl.prepare(run)
    roots = sweep.scalar_phase(wl.draws, 0, wl.n)
    wl.check_scalar(run, "as solved", roots)
    assert run.failed == 0, run.messages
    bad = roots.copy()
    bad[0, 0] *= 1.0 + 1e-4  # a domain draw
    wl.reference = None
    wl.check_scalar(run, "perturbed", bad)
    assert run.failed == 1


def test_corner_residual_failures_are_known_defects_not_failures(tmp_path):
    run = _run(tmp_path)
    wl = workloads.SolverSweep()
    wl.prepare(run)
    roots = sweep.scalar_phase(wl.draws, 0, wl.n)
    wl.check_scalar(run, "as solved", roots)
    known = run.known
    bad = roots.copy()
    bad[wl.n_domain, 0] *= 1.0 + 1e-4  # the first corner draw, a good root for seed 5
    wl.reference = None
    wl.check_scalar(run, "perturbed", bad)
    assert run.failed == 0
    assert run.known == 2 * known + 1

    # a corner result that changes between repeats is still a failed operation
    wl.check_scalar(run, "not repeatable", roots)
    assert run.failed == 1


def test_independent_residual_matches_a_known_root():
    # empty cavity limit (g = 0): N = eta^2 / (kappa^2 + delta_c^2) exactly
    kappa, delta_c, eta2 = 2.0e7, 5.0e6, 3.0e18
    n = eta2 / (kappa**2 + delta_c**2)
    assert not sweep.bad_roots(n, 0.0, 1.0e7, 0.0, kappa, delta_c, eta2)
    assert sweep.bad_roots(n * (1 + 1e-6), 0.0, 1.0e7, 0.0, kappa, delta_c, eta2)


def test_tracer_wraps_every_binding_and_restores_them():
    import cavdet.cli
    import cavdet.trajectory_sim

    original = cavdet.trajectory_sim.run_ensemble
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cavdet.cli.run_ensemble is cavdet.trajectory_sim.run_ensemble
        assert cavdet.cli.run_ensemble is not original
        cavdet.stationary_scan(
            cavdet.AtomParams(), cavdet.CavityParams(g_max=1e7, kappa_t=1e7, kappa_loss=1e7),
            cavdet.DriveParams(j_in=1e6, tau=1e-5), np.linspace(0.0, 1e7, 8),
        )
    assert cavdet.cli.run_ensemble is original
    assert tracer.deterministic_counts()["steady_state.scan_elems"] == 8


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:       400 |        700 |   scipy.constants",
        "import time:        50 |        900 | cavdet",
    ])
    split = common.parse_importtime(text)
    assert split["numpy"] == pytest.approx(300e-6)
    assert split["scipy"] == pytest.approx(400e-6)
    assert split["cavdet"] == pytest.approx(200e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "transit-recoil", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert res.returncode != 0
    assert res.stdout.strip() == ""
