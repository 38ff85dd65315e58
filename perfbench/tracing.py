"""Spans around cavdet's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules in
every ``cavdet`` namespace that bound it (``cli`` binds ``run_ensemble``,
``trajectory_sim`` binds ``stationary_scan``, and so on) and ``uninstall``
puts the originals back.  No source file changes.

Spans are aggregated as they close (count, total, self time, and the
duration of every transit), so a run with 10^5 solver calls keeps a few
kilobytes instead of every span.  Self time is a span's duration minus the
time its child spans cover.  Root checks made inside a wrapper run on a
paused clock, so no span includes them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from checks import bad_roots, root_ok
from common import tree_bytes

TRACED_MODULES = (
    "cli",
    "config",
    "steady_state",
    "resonant_detection",
    "homodyne_detection",
    "motion",
    "trajectory_sim",
    "fiber_cavity",
)
WARNING_LAYERS = {  # warning class -> the layer metric that counts it
    "SaturationWarning": "motion.saturation_warnings",
    "IllConditionedRootsWarning": "steady_state.ill_conditioned_warnings",
    "QuasiStaticViolated": "trajectory_sim.quasi_static_warnings",
}
# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.cavdet_s", "s"),
    ("config.load_ms", "ms"),
    ("cli.sink_s", "s"),
    ("cli.write_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.steady_ms", "ms"),
    ("cli.scan_pump_ms", "ms"),
    ("cli.homodyne_scan_ms", "ms"),
    ("cli.motion_averages_ms", "ms"),
    ("cli.design_cavity_ms", "ms"),
    ("trajectory_sim.transit_ms_p50", "ms"),
    ("trajectory_sim.transit_ms_p90", "ms"),
    ("trajectory_sim.transit_self_s", "s"),
    ("trajectory_sim.ensemble_self_s", "s"),
    ("trajectory_sim.dark_rates_ms", "ms"),
    ("trajectory_sim.transits", "count"),
    ("trajectory_sim.clicks", "count"),
    ("trajectory_sim.quasi_static_warnings", "count"),
    ("steady_state.scan_ns_per_elem", "ns"),
    ("steady_state.scan_elems", "count"),
    ("steady_state.solve_us", "us"),
    ("steady_state.solve_calls", "count"),
    ("steady_state.bad_roots", "count"),
    ("steady_state.roots_checked", "count"),
    ("steady_state.multi_branch_ratio", "ratio"),
    ("steady_state.ill_conditioned_warnings", "count"),
    ("resonant_detection.optimal_kappa_t_ms", "ms"),
    ("resonant_detection.snr_us", "us"),
    ("homodyne_detection.optimal_kappa_t_homodyne_ms", "ms"),
    ("homodyne_detection.report_us", "us"),
    ("motion.spatial_averages_us", "us"),
    ("motion.saturation_warnings", "count"),
    ("fiber_cavity.derive_ms", "ms"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)
# counts that must repeat exactly between two traced passes of the same inputs
DETERMINISTIC = (
    "steady_state.solve_calls",
    "steady_state.scan_elems",
    "steady_state.roots_checked",
    "steady_state.bad_roots",
    "steady_state.multi_branch_calls",
    "trajectory_sim.transits",
    "trajectory_sim.clicks",
    "cli.output_bytes",
    *WARNING_LAYERS.values(),
)


class _Stat:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans plus counters for one traced pass."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child time]
        self._paused = 0.0
        self._ensemble_return = None
        self._restore: list[tuple[object, str, object]] = []

    # -- clock and spans ------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, keep_sample: bool = False) -> float:
        self._stack.pop()
        duration = self.clock() - frame[1]
        st = self.stats[frame[0]]
        st.count += 1
        st.total += duration
        st.self_time += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if keep_sample:
            self.samples[frame[0]].append(duration)
        return duration

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, keep_sample=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame, keep_sample)
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                self._paused += time.perf_counter() - t0
            return result

        return wrapper

    def _wrap_cli_run(self, fn):
        @functools.wraps(fn)
        def wrapper(argv):
            argv = list(argv)
            command = argv[0].replace("-", "_")
            self._ensemble_return = None
            frame = self.enter(f"cli.{command}")
            try:
                code = fn(argv)
            finally:
                self.exit(frame)
                if command == "simulate" and self._ensemble_return is not None:
                    self.counters["cli.write_s"] += self.clock() - self._ensemble_return
            if "--out" in argv:
                with self.paused():
                    out = Path(argv[argv.index("--out") + 1])
                    if out.exists():
                        self.counters["cli.output_bytes"] += tree_bytes(out)
            return code

        return wrapper

    def _wrap_run_ensemble(self, fn):
        name = "trajectory_sim.run_ensemble"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sink = kwargs.get("record_sink")
            if sink is not None:
                kwargs["record_sink"] = self._wrap("cli.sink", sink)
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)
                self._ensemble_return = self.clock()

        return wrapper

    def _after_roots(self, args, kwargs, roots):
        atom, cavity, drive = args[:3]
        g = kwargs.get("g_local", args[3] if len(args) > 3 else None)
        g = cavity.g_max if g is None else g
        eta2 = drive.j_in * cavity.kappa_t
        consts = (g, atom.gamma, atom.delta_a, cavity.kappa, cavity.delta_c, eta2)
        c = self.counters
        c["steady_state.roots_checked"] += len(roots)
        c["steady_state.bad_roots"] += sum(not root_ok(n, *consts) for n in roots)
        c["steady_state.root_sets"] += 1
        c["steady_state.multi_branch_calls"] += len(roots) > 1

    def _after_scan(self, args, kwargs, n):
        atom, cavity, drive, g_values = args[:4]
        eta2 = drive.j_in * cavity.kappa_t
        g = np.asarray(g_values, dtype=float)
        bad = bad_roots(n, g, atom.gamma, atom.delta_a, cavity.kappa, cavity.delta_c, eta2)
        self.counters["steady_state.scan_elems"] += int(np.size(n))
        self.counters["steady_state.roots_checked"] += int(np.size(n))
        self.counters["steady_state.bad_roots"] += int(bad.sum())

    def _after_transit(self, args, kwargs, record):
        self.counters["trajectory_sim.clicks"] += int(record.click_times.size)

    def install(self) -> None:
        """Wrap every public function of the traced modules wherever it is bound."""
        special = {
            "cli.run": self._wrap_cli_run,
            "trajectory_sim.run_ensemble": self._wrap_run_ensemble,
        }
        after = {
            "steady_state.stationary_photon_numbers": self._after_roots,
            "steady_state.stationary_scan": self._after_scan,
            "trajectory_sim.simulate_trajectory": self._after_transit,
        }
        modules = {short: importlib.import_module(f"cavdet.{short}") for short in TRACED_MODULES}
        namespaces = [m for n, m in sys.modules.items() if n == "cavdet" or n.startswith("cavdet.")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in special:
                    wrapper = special[name](fn)
                else:
                    wrapper = self._wrap(
                        name, fn, after.get(name), keep_sample=name.endswith("simulate_trajectory")
                    )
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    @contextmanager
    def installed(self):
        """Traced region: wrappers in place and every warning counted by class."""
        self.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            self.uninstall()
        for w in caught:
            layer = WARNING_LAYERS.get(w.category.__name__)
            if layer is not None:
                self.counters[layer] += 1

    # -- results --------------------------------------------------------------

    def deterministic_counts(self) -> dict[str, int]:
        out = {k: int(self.counters.get(k, 0)) for k in DETERMINISTIC}
        out["steady_state.solve_calls"] = self.stats["steady_state.solve_stationary"].count
        out["trajectory_sim.transits"] = self.stats["trajectory_sim.simulate_trajectory"].count
        return out

    def _mean(self, name: str, scale: float) -> float:
        st = self.stats.get(name)
        return st.total / st.count * scale if st and st.count else 0.0

    def per_layer(self, imports: dict[str, float], traced_s: float, untraced_s: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        s = self.stats
        c = self.counters
        counts = self.deterministic_counts()
        transits = np.array(self.samples.get("trajectory_sim.simulate_trajectory", [0.0]))
        scan = s.get("steady_state.stationary_scan")
        values = {
            "import.numpy_s": imports["numpy"],
            "import.scipy_s": imports["scipy"],
            "import.cavdet_s": imports["cavdet"],
            "config.load_ms": self._mean("config.load_config", 1e3),
            "cli.sink_s": s["cli.sink"].total,
            "cli.write_s": c["cli.write_s"],
            "cli.output_bytes": counts["cli.output_bytes"],
            "cli.steady_ms": self._mean("cli.steady", 1e3),
            "cli.scan_pump_ms": self._mean("cli.scan_pump", 1e3),
            "cli.homodyne_scan_ms": self._mean("cli.homodyne_scan", 1e3),
            "cli.motion_averages_ms": self._mean("cli.motion_averages", 1e3),
            "cli.design_cavity_ms": self._mean("cli.design_cavity", 1e3),
            "trajectory_sim.transit_ms_p50": float(np.percentile(transits, 50)) * 1e3,
            "trajectory_sim.transit_ms_p90": float(np.percentile(transits, 90)) * 1e3,
            "trajectory_sim.transit_self_s": s["trajectory_sim.simulate_trajectory"].self_time,
            "trajectory_sim.ensemble_self_s": s["trajectory_sim.run_ensemble"].self_time,
            "trajectory_sim.dark_rates_ms": self._mean("trajectory_sim.dark_rates", 1e3),
            "trajectory_sim.transits": counts["trajectory_sim.transits"],
            "trajectory_sim.clicks": counts["trajectory_sim.clicks"],
            "trajectory_sim.quasi_static_warnings": counts["trajectory_sim.quasi_static_warnings"],
            "steady_state.scan_ns_per_elem": (
                scan.total / counts["steady_state.scan_elems"] * 1e9
                if scan and counts["steady_state.scan_elems"] else 0.0
            ),
            "steady_state.scan_elems": counts["steady_state.scan_elems"],
            "steady_state.solve_us": self._mean("steady_state.solve_stationary", 1e6),
            "steady_state.solve_calls": counts["steady_state.solve_calls"],
            "steady_state.bad_roots": counts["steady_state.bad_roots"],
            "steady_state.roots_checked": counts["steady_state.roots_checked"],
            "steady_state.multi_branch_ratio": (
                c["steady_state.multi_branch_calls"] / c["steady_state.root_sets"]
                if c["steady_state.root_sets"] else 0.0
            ),
            "steady_state.ill_conditioned_warnings": counts["steady_state.ill_conditioned_warnings"],
            "resonant_detection.optimal_kappa_t_ms": self._mean(
                "resonant_detection.optimal_kappa_t", 1e3
            ),
            "resonant_detection.snr_us": self._mean("resonant_detection.snr_resonant", 1e6),
            "homodyne_detection.optimal_kappa_t_homodyne_ms": self._mean(
                "homodyne_detection.optimal_kappa_t_homodyne", 1e3
            ),
            "homodyne_detection.report_us": self._mean("homodyne_detection.homodyne_report", 1e6),
            "motion.spatial_averages_us": self._mean("motion.spatial_averages", 1e6),
            "motion.saturation_warnings": counts["motion.saturation_warnings"],
            "fiber_cavity.derive_ms": self._mean("fiber_cavity.derive", 1e3),
            "trace.traced_s": traced_s,
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
