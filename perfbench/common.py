"""Child processes, statistics and machine context shared by the workloads.

Every child is a fresh interpreter that imports cavdet from the checkout's
``src`` directory, so what it costs is what a user pays from a cold start.
Children are reaped with ``os.wait4`` to read their CPU time and peak RSS.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    """Wall time, user+sys CPU and peak RSS of one finished child."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


PEAK_TAG = "perfbench-vmhwm-kb"
# Runs a module as ``python -m`` does and reports the interpreter's own peak
# RSS (VmHWM) at exit.  ru_maxrss from wait4 cannot be used: exec folds the
# parent's resident set into the child's maximum.
_LAUNCHER = (
    "import atexit, runpy, sys\n"
    "def _peak():\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = [l.split()[1] for l in f if l.startswith('VmHWM:')]\n"
    f"    sys.stderr.write('\\n{PEAK_TAG} ' + (kb[0] if kb else '0') + '\\n')\n"
    "atexit.register(_peak)\n"
    "module = sys.argv.pop(1)\n"
    "runpy.run_module(module, run_name='__main__', alter_sys=True)\n"
)


def child_env(root: Path) -> dict:
    """The checkout's sources first, then the benchmark's own modules."""
    env = dict(os.environ)
    paths = [str(root / "src"), str(Path(__file__).resolve().parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def module_argv(module: str, *args: str) -> list[str]:
    """``python -m module args`` that also reports its peak RSS."""
    return [sys.executable, "-c", _LAUNCHER, module, *args]


def cli_argv(*args: str) -> list[str]:
    return module_argv("cavdet.cli", *args)


def run_child(argv: list[str], root: Path, log_dir: Path) -> ChildResult:
    """Run one child to completion; its output goes to files, never a pipe."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=log_dir) as out, tempfile.TemporaryFile(dir=log_dir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    peak_kb = 0.0
    for line in reversed(stderr.splitlines()):
        if line.startswith(PEAK_TAG):
            peak_kb = float(line.split()[1])
            break
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=peak_kb / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def run_children(argvs: list[list[str]], root: Path, log_dir: Path, workers: int):
    """Run children with at most ``workers`` alive at once; returns (wall, results)."""
    t0 = time.perf_counter()
    if workers <= 1:
        results = [run_child(a, root, log_dir) for a in argvs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda a: run_child(a, root, log_dir), argvs))
    return time.perf_counter() - t0, results


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cavdet; "
    "print(repr(time.perf_counter() - t))"
)


def cold_import_seconds(root: Path, log_dir: Path, count: int) -> list[float]:
    """``import cavdet`` timed inside ``count`` fresh interpreters.

    Call it after this process has imported cavdet, so that byte-code
    compilation in a fresh checkout is not counted as import time.
    """
    times = []
    for _ in range(count):
        res = run_child([sys.executable, "-c", _IMPORT_PROBE], root, log_dir)
        if res.returncode != 0:
            raise RuntimeError(f"import cavdet failed:\n{res.stderr}")
        times.append(float(res.stdout.strip()))
    return times


def parse_importtime(text: str) -> dict[str, float]:
    """Split ``-X importtime`` output of ``import cavdet`` into numpy, scipy and the rest.

    numpy counts wherever it is first imported, scipy without the numpy it
    pulls in, and cavdet is what remains of the total.  Returns seconds.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "cavdet": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):  # parents precede children when reversed
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        inside = {s[1] for s in stack}
        if top == "numpy" and "numpy" not in inside:
            totals["numpy"] += cum
            if "scipy" in inside:
                totals["scipy"] -= cum
        elif top == "scipy" and not inside & {"numpy", "scipy"}:
            totals["scipy"] += cum
        elif name == "cavdet":
            totals["cavdet"] += cum
        stack.append((depth, top))
    totals["cavdet"] -= totals["numpy"] + totals["scipy"]
    return totals


def import_breakdown(root: Path, log_dir: Path, count: int) -> list[dict[str, float]]:
    """Per-package import cost of ``import cavdet`` in ``count`` fresh interpreters.

    Like ``cold_import_seconds``, call it after this process imported cavdet.
    """
    out = []
    for _ in range(count):
        res = run_child([sys.executable, "-X", "importtime", "-c", "import cavdet"], root, log_dir)
        if res.returncode != 0:
            raise RuntimeError(f"import cavdet failed:\n{res.stderr}")
        out.append(parse_importtime(res.stderr))
    return out


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float | None:
    """Interquartile distance as a share of the median (None below 2 samples)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(path: Path) -> dict[str, str]:
    """sha256 of every file under the directory ``path``, by relative name."""
    return {str(p.relative_to(path)): file_digest(p) for p in sorted(path.rglob("*")) if p.is_file()}


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(package: str) -> str | None:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(package)
    except PackageNotFoundError:
        return None


def machine_context(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    import cavdet

    src = root / "src" / "cavdet"
    h = hashlib.sha256()
    for p in sorted(src.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cavdet": cavdet.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
