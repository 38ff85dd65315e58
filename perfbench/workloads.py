"""The four workloads: what each runs, how its outputs are checked.

Every workload has three entry points:

* ``prepare(run)`` builds its inputs from the seed;
* ``measure_round(run, k)`` runs round ``k`` untraced and returns its
  end-to-end values: ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of the cold
  one-worker phase, ``wall_2w_s`` of the same load on two workers, and
  ``warm_s`` of the in-process phase (a value, or a list of samples).  A
  round may leave some out; rounds continue until each has a sample;
* ``op(run, tag)`` runs the in-process, one-worker operation that traced
  runs time, and returns a function that checks its outputs once tracing
  is off, so that checks never appear in a span.

Every check failure is counted as one failed operation in ``Run``; none is
dropped.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import cavdet
import cavdet.cli
import numpy as np
from cavdet import MHZ, US, AtomParams, CavityParams, DriveParams
from cavdet.config import load_config

import checks
import sweep
from common import cli_argv, file_digest, module_argv, run_child, run_children, tree_digest

MAX_MESSAGES = 40


@dataclass
class Run:
    """Inputs of one benchmark invocation and the operations it counted."""

    root: Path
    work: Path
    seed: int
    tiny: bool
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    known: int = 0
    known_messages: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def count(self, label: str, problems: list[str], ops: int = 1, failed: int | None = None,
              known: int = 0, known_problems: tuple[str, ...] = ()):
        """Count ``ops`` operations, of which ``failed`` (default: all, if any problem) failed.

        ``known`` of them failed inside the solver's known strong-saturation
        defect (see ``sweep``): they are reported with ``known_problems`` but
        are not failed operations.
        """
        self.attempted += ops
        self.failed += (ops if problems else 0) if failed is None else failed
        self.known += known
        for p in problems:
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{label}: {p}")
        for p in known_problems:
            if len(self.known_messages) < MAX_MESSAGES:
                self.known_messages.append(f"{label}: {p}")


def _cli(argv) -> int:
    """``cavdet.cli.run`` in this process, looked up at call time so tracing sees it."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cavdet.cli.run([str(a) for a in argv])


def timed(fn):
    """Run ``fn`` once; returns (seconds, result)."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _exit_problems(code: int, stderr: str = "") -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]


# --- transit ensembles -------------------------------------------------------

class Transit:
    """``cavdet simulate`` on one config at 1 and 2 workers, plus an in-process prefix.

    ``atoms`` overrides the config's atom count (None keeps it).  The
    prefix ensemble (the first ``n_warm`` trajectories, one worker, no
    record sink) is the warm phase; it must reproduce the CLI run's
    detections and dark rate exactly.
    """

    def __init__(self, name: str, config: str, atoms: int | None, n_warm: int,
                 tiny_atoms: int, tiny_warm: int):
        self.name = name
        self.config = config
        self.atoms_full = atoms
        self.n_warm_full = n_warm
        self.tiny_atoms = tiny_atoms
        self.tiny_warm = tiny_warm

    def prepare(self, run: Run) -> None:
        self.path = run.root / self.config
        atoms = self.tiny_atoms if run.tiny else self.atoms_full
        self.atoms = [] if atoms is None else ["--atoms", str(atoms)]
        cfg = load_config(self.path)
        self.n_warm = self.tiny_warm if run.tiny else self.n_warm_full
        self.args = (cfg.atom, cfg.cavity, cfg.drive, cfg.guide)
        self.warm_sim = replace(cfg.sim, seed=run.seed, n_atoms=self.n_warm)
        self.reference = None
        # first-call costs stay out of warm_s
        cavdet.run_ensemble(*self.args, replace(self.warm_sim, n_atoms=1, dark_windows=10))

    def _argv(self, run: Run, workers: int, out: Path) -> list[str]:
        return [
            "simulate", "--config", str(self.path), "--seed", str(run.seed),
            "--threads", str(workers), "--out", str(out), *self.atoms,
        ]

    def check_outputs(self, run: Run, label: str, code: int, out: Path, stderr: str = ""):
        """Exit code, acceptance bands and byte-identity with the first output of this seed.

        Returns the parsed report.json, or None when there is none to use.
        """
        problems = _exit_problems(code, stderr)
        if problems:
            run.count(label, problems)
            return None
        try:
            report = json.loads((out / "report.json").read_text())
            problems = checks.transit_report_problems(report)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            run.count(label, [f"unreadable report.json: {exc!r}"])
            return None
        digest = tree_digest(out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("outputs are not byte-identical to the first run of this seed")
        run.count(label, problems)
        return report

    def measure_round(self, run: Run, k: int) -> dict[str, float]:
        outs = {w: run.work / f"{self.name}-{k}-{w}w" for w in (1, 2)}
        res, warm_s = {}, []
        for w in (1, 2):  # a warm sample after each child spreads them over the round
            res[w] = run_child(cli_argv(*self._argv(run, w, outs[w])), run.root, run.work)
            seconds, warm = timed(lambda: cavdet.run_ensemble(*self.args, self.warm_sim))
            warm_s.append(seconds)
        report = self.check_outputs(run, "simulate --threads 1", res[1].returncode, outs[1], res[1].stderr)
        self.check_outputs(run, "simulate --threads 2", res[2].returncode, outs[2], res[2].stderr)
        run.count(
            "prefix ensemble",
            checks.warm_ensemble_problems(report, warm, self.n_warm) if report else ["no CLI report"],
        )
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)
        return {
            "wall_s": res[1].wall_s,
            "wall_2w_s": res[2].wall_s,
            "cpu_s": res[1].cpu_s,
            "peak_rss_mb": res[1].rss_mb,
            "warm_s": warm_s,
        }

    def op(self, run: Run, tag: str):
        out = run.work / f"{self.name}-{tag}"
        code = _cli(self._argv(run, 1, out))

        def check():
            self.check_outputs(run, f"in-process simulate ({tag})", code, out)
            shutil.rmtree(out, ignore_errors=True)

        return check


# --- design study ------------------------------------------------------------

# (command, output file, arguments); config paths are relative to the checkout
DESIGN_COMMANDS = (
    ("steady", "steady.json", ["--config", "configs/main_cavity.json"]),
    ("scan-pump", "scan_pump.csv", ["--config", "configs/main_cavity.json"]),
    (
        "homodyne-scan",
        "homodyne_scan.csv",
        ["--config", "configs/narrow_cavity.json", "--jmin-per-us", "5", "--jmax-per-us", "500",
         "--points", "201"],
    ),
    ("motion-averages", "motion_averages.csv", ["--config", "configs/transit.json"]),
    ("design-cavity", "design.json", ["--core-um", "5", "--length-mm", "10.4", "--mode-index", "13"]),
)
HOMODYNE_ROW = 100  # 50 photons/us, the dispersive design point, on the grid above
SWEEP_G_MHZ = (4.0, 30.0)
SWEEP_KAPPA_LOSS_MHZ = (0.59, 6.0)
ATOM_RESONANT = AtomParams()
ATOM_DISPERSIVE = AtomParams(delta_a=200 * 3 * MHZ)
SWEEP_DRIVE = DriveParams(j_in=2e6, tau=10 * US)


def design_argvs(root: Path, out_dir: Path) -> list[tuple[str, Path, list[str]]]:
    out = []
    for command, name, args in DESIGN_COMMANDS:
        args = [str(root / a) if a.startswith("configs/") else a for a in args]
        out.append((command, out_dir / name, [command, *args, "--out", str(out_dir / name)]))
    return out


def optimizer_sweep(cavities) -> list:
    """Resonant and dispersive kappa_t optimizers on every cavity, in order."""
    results = []
    for cav in cavities:
        results.append(cavdet.optimal_kappa_t(ATOM_RESONANT, cav, SWEEP_DRIVE))
        results.append(cavdet.optimal_kappa_t_homodyne(ATOM_DISPERSIVE, cav, SWEEP_DRIVE))
    return results


class DesignStudy:
    """Five cold CLI design commands, then a warm sweep of both kappa_t optimizers."""

    name = "design-study"

    def prepare(self, run: Run) -> None:
        grid = [(12.0, 6.0), (12.0, 0.59)] if run.tiny else [
            (g, kl) for g in SWEEP_G_MHZ for kl in SWEEP_KAPPA_LOSS_MHZ
        ]
        self.cavities = [CavityParams(g_max=g * MHZ, kappa_t=kl * MHZ, kappa_loss=kl * MHZ) for g, kl in grid]
        self.main = load_config(run.root / "configs" / "main_cavity.json")
        self.reference = {}
        self.sweep_reference = None
        optimizer_sweep(self.cavities[:1])

    def _content_problems(self, command: str, path: Path) -> list[str]:
        c = self.main
        if command == "steady":
            return checks.steady_problems(
                path, c.drive.j_in, c.drive.tau, c.cavity.kappa_t, c.cavity.kappa,
                c.cavity.g_max, c.atom.gamma,
            )
        if command == "scan-pump":
            return checks.scan_pump_problems(path)
        if command == "homodyne-scan":
            return checks.homodyne_scan_problems(path, HOMODYNE_ROW)
        if command == "motion-averages":
            return checks.motion_problems(path)
        return checks.design_problems(path)

    def check_command(self, run: Run, label: str, command: str, path: Path, code: int, stderr=""):
        problems = _exit_problems(code, stderr)
        if not problems:
            try:
                problems = self._content_problems(command, path)
                digest = file_digest(path)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            else:
                if self.reference.setdefault(command, digest) != digest:
                    problems.append("output is not byte-identical to the first run")
        run.count(f"{label} {command}", problems)

    def check_sweep(self, run: Run, label: str, results) -> None:
        tau = SWEEP_DRIVE.tau
        for i, opt in enumerate(results):
            cav = self.cavities[i // 2]
            bounds = (cav.kappa_loss / 20.0, 5.0 * cav.kappa_loss)
            if i % 2 == 0:
                ends = [cavdet.max_snr_over_pump(ATOM_RESONANT, replace(cav, kappa_t=b), tau).snr
                        for b in bounds]
            else:
                ends = [cavdet.max_snr_hom_over_pump(ATOM_DISPERSIVE, replace(cav, kappa_t=b), tau)[1]
                        for b in bounds]
            problems = checks.optimum_problems(f"optimizer {i}", opt, tuple(ends))
            if self.sweep_reference is not None and self.sweep_reference[i] != opt:
                problems.append("optimum differs from the first sweep")
            run.count(label, problems)
        if self.sweep_reference is None:
            self.sweep_reference = list(results)

    def measure_round(self, run: Run, k: int) -> dict[str, float]:
        """Even rounds run the commands back to back, odd rounds two at a time.

        Both together take about 10 s of cold processes, so alternating
        them lets a run end closer to ``--seconds`` with more samples of each.
        """
        workers = 1 + k % 2
        cmds = design_argvs(run.root, run.work / f"design-{k}")
        cmds[0][1].parent.mkdir(parents=True, exist_ok=True)
        wall, results = run_children([cli_argv(*a) for _, _, a in cmds], run.root, run.work, workers)
        warm_s, opts = timed(lambda: optimizer_sweep(self.cavities))
        for (command, path, _), res in zip(cmds, results):
            self.check_command(run, f"{workers} worker(s)", command, path, res.returncode, res.stderr)
        shutil.rmtree(cmds[0][1].parent, ignore_errors=True)
        self.check_sweep(run, "optimizer sweep", opts)
        if workers == 2:
            return {"wall_2w_s": wall, "warm_s": warm_s}
        return {
            "wall_s": wall,
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.rss_mb for r in results),
            "warm_s": warm_s,
        }

    def op(self, run: Run, tag: str):
        cmds = design_argvs(run.root, run.work / f"design-{tag}")
        cmds[0][1].parent.mkdir(parents=True, exist_ok=True)
        codes = [_cli(argv) for _, _, argv in cmds]
        opts = optimizer_sweep(self.cavities)

        def check():
            for (command, path, _), code in zip(cmds, codes):
                self.check_command(run, f"in-process ({tag})", command, path, code)
            shutil.rmtree(cmds[0][1].parent, ignore_errors=True)
            self.check_sweep(run, f"optimizer sweep ({tag})", opts)

        return check


# --- stationary solver sweep -------------------------------------------------

class SolverSweep:
    """Scalar solves of every draw in a cold child (1 and 2 workers), batched scans warm.

    Draws in the strong-saturation corner and the pinned case lie in the
    solver's known defect: their residual failures are reported as known
    defects, not failed operations.  Everywhere else a failing root, and
    anywhere a result that differs between workers or repeats, is a failed
    operation.
    """

    name = "solver-sweep"

    def prepare(self, run: Run) -> None:
        n_domain, n_corner, n_batch = (200, 200, 10) if run.tiny else (25_000, 25_000, 1_000)
        self.draws = sweep.make_draws(run.seed, n_domain, n_corner)
        self.n = self.draws["g"].size
        self.n_domain = n_domain
        self.path = run.work / "draws.npz"
        run.work.mkdir(parents=True, exist_ok=True)
        np.savez(self.path, **self.draws)
        # batched calls cover the first domain draws, the first corner draws and the pinned case
        self.batch_idx = np.concatenate(
            [np.arange(n_batch), np.arange(n_domain, n_domain + n_batch), [self.n - 1]]
        )
        self.batch_inputs = sweep.batched_inputs(self.draws, self.batch_idx)
        self.reference = None
        sweep.batched_phase(self.batch_inputs[:2])

    def _child(self, lo: int, hi: int, out: Path) -> list[str]:
        return module_argv("solver_child", str(self.path), str(lo), str(hi), str(out))

    @staticmethod
    def _load(results, outs):
        if any(r.returncode != 0 for r in results):
            return None
        return np.concatenate([np.load(o) for o in outs])

    @staticmethod
    def _describe(rows: np.ndarray, what: str) -> list[str]:
        """One message for the marked rows, or none; the pinned case is the last row."""
        if not rows.any():
            return []
        pinned = " (pinned case included)" if rows[-1] else ""
        return [f"{int(rows.sum())} of {rows.size} {what}{pinned}"]

    def check_scalar(self, run: Run, label: str, roots) -> None:
        if roots is None:
            run.count(label, ["solver child failed"], ops=self.n)
            return
        bad = sweep.scalar_bad_rows(self.draws, roots)
        defect = np.arange(self.n) >= self.n_domain
        if self.reference is None:
            self.reference = roots
        same = (roots == self.reference) | (np.isnan(roots) & np.isnan(self.reference))
        differ = ~same.all(axis=1)
        known = bad & defect & ~differ
        run.count(
            label,
            self._describe(bad & ~defect, "root sets fail the residual check")
            + self._describe(differ, "root sets differ from the first solve of this seed"),
            ops=self.n,
            failed=int(((bad & ~defect) | differ).sum()),
            known=int(known.sum()),
            known_problems=self._describe(known, "root sets fail the residual check in the corner"),
        )
        run.notes["pinned_scalar_roots"] = [float(x) for x in roots[-1] if not np.isnan(x)]
        run.notes["pinned_scalar_failed"] = bool(bad[-1])

    def check_batched(self, run: Run, label: str, batched, roots) -> None:
        low = roots[self.batch_idx, 0] if roots is not None else np.full(self.batch_idx.size, np.nan)
        bad_elems, disagree = sweep.batched_bad_rows(self.draws, self.batch_idx, batched, low)
        rows = (bad_elems > 0) | disagree
        defect = self.batch_idx >= self.n_domain

        def describe(mask, where):
            return self._describe(
                mask, f"scans fail{where}: {int(bad_elems[mask].sum())} bad elements, "
                f"{int(disagree[mask].sum())} lower branches disagree with the scalar solve",
            )

        run.count(
            label,
            describe(rows & ~defect, ""),
            ops=rows.size,
            failed=int((rows & ~defect).sum()),
            known=int((rows & defect).sum()),
            known_problems=describe(rows & defect, " in the corner"),
        )
        run.notes["pinned_batched_n"] = float(batched[-1, -1])
        run.notes["pinned_batched_failed"] = bool(rows[-1])

    def measure_round(self, run: Run, k: int) -> dict[str, float]:
        one = run.work / f"roots-{k}-1w.npy"
        r1 = run_child(self._child(0, self.n, one), run.root, run.work)
        # a warm sample after each cold phase spreads them over the round
        warm_a, batched_a = timed(lambda: sweep.batched_phase(self.batch_inputs))
        half = self.n // 2
        outs = [run.work / f"roots-{k}-2w-{i}.npy" for i in (0, 1)]
        wall2, r2 = run_children(
            [self._child(0, half, outs[0]), self._child(half, self.n, outs[1])],
            run.root, run.work, workers=2,
        )
        warm_b, batched_b = timed(lambda: sweep.batched_phase(self.batch_inputs))
        roots1 = self._load([r1], [one])
        self.check_scalar(run, "scalar solves, 1 worker", roots1)
        self.check_scalar(run, "scalar solves, 2 workers", self._load(r2, outs))
        self.check_batched(run, "batched scans", batched_a, roots1)
        self.check_batched(run, "batched scans", batched_b, roots1)
        for p in [one, *outs]:
            p.unlink(missing_ok=True)
        if r1.returncode == 0:
            run.notes["child_solve_s"] = json.loads(r1.stdout.strip().splitlines()[-1])["solve_s"]
        return {
            "wall_s": r1.wall_s,
            "wall_2w_s": wall2,
            "cpu_s": r1.cpu_s,
            "peak_rss_mb": r1.rss_mb,
            "warm_s": [warm_a, warm_b],
        }

    def op(self, run: Run, tag: str):
        roots = sweep.scalar_phase(self.draws, 0, self.n)
        batched = sweep.batched_phase(self.batch_inputs)

        def check():
            self.check_scalar(run, f"scalar solves in-process ({tag})", roots)
            self.check_batched(run, f"batched scans ({tag})", batched, roots)

        return check


WORKLOADS = {
    "transit-recoil": lambda: Transit("transit-recoil", "configs/transit.json", 80, 10, 6, 3),
    "transit-ballistic": lambda: Transit(
        "transit-ballistic", "perfbench/transit_ballistic.json", None, 200, 20, 10
    ),
    "design-study": DesignStudy,
    "solver-sweep": SolverSweep,
}


def probe(run: Run, tag: str) -> None:
    """Every traced layer once, at a small size that is the same for every workload and seed.

    Traced runs end with it, so that each per-layer metric is measured on
    every workload.
    """
    out = run.work / f"probe-{tag}"
    out.mkdir(parents=True, exist_ok=True)
    for _, _, argv in design_argvs(run.root, out):
        _cli(argv)
    _cli([
        "simulate", "--config", run.root / "perfbench" / "transit_ballistic.json", "--atoms", "4",
        "--seed", "0", "--threads", "1", "--out", out / "simulate",
    ])
    cav = CavityParams(g_max=12 * MHZ, kappa_t=6 * MHZ, kappa_loss=6 * MHZ)
    optimizer_sweep([cav])
    shutil.rmtree(out, ignore_errors=True)
