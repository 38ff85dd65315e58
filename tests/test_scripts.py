"""The study scripts still run against the library, at tiny sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("design_table.py", ["--m-max", "2"]),
        ("transit_ensemble.py", ["--atoms", "4", "--dark-windows", "200", "--out-dir", "{tmp}"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
