"""cavdet benchmark: one workload per invocation, checked outputs, metrics with units.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout it sits in (``src/cavdet``
and ``configs/`` next to this directory) and writes only to a scratch
directory inside that checkout, which it removes before exiting.

``--trace 0`` measures with tracing off.  It times ``import cavdet`` in
fresh interpreters (``setup_s``), then repeats rounds of the workload until
``--seconds`` would be exceeded, but at least until every end-to-end
metric has a sample, and reports the median of each.  ``--trace 1`` runs
the workload in-process on one worker: traced, untraced, traced again,
each followed (when traced) by a fixed probe of every layer.  It reports
the per-layer metrics of the first traced pass, the tracing overhead (mean
traced minus untraced wall time), and fails an operation if the
deterministic counts of the two traced passes differ.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details: machine context, every sample, failure messages and counts.
Exit code 0 means the benchmark ran (failed operations are counted, not
fatal); 2 means it could not run, for example outside a cavdet checkout.
Results inside the solver's known strong-saturation defect are listed under
``known_defects`` in the details and do not count as failed operations.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path

import common
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_2w_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("warm_s", "s"),
)
SETUP_IMPORTS = 3
TRACE_IMPORTS = 3


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    return p.parse_args(argv)


def _measure(wl, run, seconds: float) -> tuple[dict, dict]:
    setup = common.cold_import_seconds(run.root, run.work, 1 if run.tiny else SETUP_IMPORTS)
    wl.prepare(run)
    samples = {"setup_s": setup}
    took = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for k, v in wl.measure_round(run, len(took)).items():
            samples.setdefault(k, []).extend(v if isinstance(v, list) else [v])
        took.append(time.perf_counter() - t0)
        # rounds may alternate between two kinds, so the next one is like the one before last
        next_round = took[-2] if len(took) > 1 else took[-1]
        complete = all(name in samples for name, _ in END_TO_END)
        if complete and time.perf_counter() - start + next_round > seconds:
            break
    metrics = {
        name: {"value": common.median(samples[name]), "unit": unit} for name, unit in END_TO_END
    }
    detail = {
        "rounds": len(took),
        "samples": samples,
        "spread": {k: common.spread(v) for k, v in samples.items()},
    }
    return metrics, detail


def _trace(wl, run) -> tuple[dict, dict]:
    from workloads import probe

    imports = common.import_breakdown(run.root, run.work, 1 if run.tiny else TRACE_IMPORTS)
    wl.prepare(run)

    def traced(tag):
        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            check = wl.op(run, tag)
            wall = time.perf_counter() - t0
            probe(run, tag)
        check()
        return tracer, wall

    first, wall_a = traced("traced-a")
    t0 = time.perf_counter()
    check = wl.op(run, "untraced")
    untraced = time.perf_counter() - t0
    check()
    second, wall_b = traced("traced-b")

    counts = first.deterministic_counts()
    repeat = second.deterministic_counts()
    run.count(
        "traced counts",
        [] if counts == repeat else [f"counts differ between traced passes: {counts} vs {repeat}"],
    )
    import_med = {k: common.median([d[k] for d in imports]) for k in ("numpy", "scipy", "cavdet")}
    traced_s = (wall_a + wall_b) / 2.0
    metrics = first.per_layer(import_med, traced_s, untraced)
    detail = {
        "counts": counts,
        "imports": imports,
        "traced_walls_s": [wall_a, wall_b],
        "untraced_wall_s": untraced,
        "tracing_overhead_s": traced_s - untraced,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cavdet" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no cavdet checkout (src/cavdet, configs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench-work"
    run = workloads.Run(
        root=ROOT, work=scratch / str(os.getpid()), seed=args.seed, tiny=args.size == "tiny"
    )
    run.work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        if args.trace:
            metrics, detail = _trace(wl, run)
        else:
            metrics, detail = _measure(wl, run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    detail.update(
        workload=args.workload,
        trace=args.trace,
        size=args.size,
        seconds=args.seconds,
        elapsed_s=time.perf_counter() - t0,
        context=common.machine_context(ROOT, args.seed),
        fail_ratio=run.failed / max(run.attempted, 1),
        failures=run.messages,
        known_defects={"count": run.known, "messages": run.known_messages},
        notes=run.notes,
    )
    print(common.dumps({"perfbench": detail}))
    print(common.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
