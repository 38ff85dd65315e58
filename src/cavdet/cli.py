"""Command-line front end: scans, the transit ensemble, and the design calculator.

Every output is machine-readable (CSV with # metadata lines, or JSON) and
byte-identical across runs for a fixed config and seed.
Exit codes: 0 success, 2 configuration error (including an input outside
the solver's range, a config that cannot be read and an output that cannot
be written), 3 model/domain error or numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import os
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# each command imports the modules it runs, so a cold command loads no
# other: design-cavity runs without numpy
from . import __version__
from .errors import CavdetError, ConfigError, NotDispersive, NotResonant, StepTooLarge
from .params import MHZ, UM, US, AtomParams, DriveParams


_FLOAT = "%.12g"  # every float in a CSV
# most points of a pump grid: a point is one report and one CSV row of ~90 B, so
# 10**6 scan-pump points take about a minute on 2 vCPUs and write 88 MB
_MAX_POINTS = 10**6


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):  # numpy's integers too
        return str(int(value))
    return _FLOAT % value


def _write_text(path, text: str) -> None:
    """Replace the file at path with text, or leave it as it was.

    The text goes to a sibling .partial file, renamed over path once it is
    whole, so path becomes a new regular file in a directory that must be
    writable; a symlink at path is followed, and its target replaced.  An
    OSError names path, not the partial file.
    """
    target = Path(os.path.realpath(path))
    partial = target.with_name(target.name + ".partial")
    try:
        with open(partial, "w", newline="\n") as file:
            file.write(text)
        os.replace(partial, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            partial.unlink()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _csv(meta: list[tuple[str, str]], header: list[str], rows) -> str:
    lines = [f"# {k}: {v}" for k, v in meta]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN and infinity are not JSON
        raise ConfigError(f"an output is not finite ({exc}); the inputs are out of range") from exc
    return text + "\n"


def _pump_grid(args, center: Callable[[], float]):
    """The log-spaced pump grid of a scan, in 1/s.

    Its ends are --jmin-per-us and --jmax-per-us, or else --decades around
    center(), which is called only then.  Both ends must lie in
    PUMP_RANGE_PER_US.  Returns a list of floats, 10**(a + k*step) with
    a = log10(lo), step = (log10(hi) - a)/(points - 1) and the last
    exponent log10(hi): np.logspace's arithmetic with the C library's
    power, so the grid does not depend on the power kernel numpy picks for
    the CPU.  It lies within 1 ulp of np.logspace.
    """
    from .config import PUMP_RANGE_PER_US, in_range

    if args.jmin_per_us is not None and args.jmax_per_us is not None:
        lo, hi = args.jmin_per_us * 1e6, args.jmax_per_us * 1e6
    elif args.jmin_per_us is None and args.jmax_per_us is None:
        try:
            half = 10.0 ** (args.decades / 2.0)
        except OverflowError:  # rejected below as an infinite bound
            half = math.inf
        c = center()
        lo, hi = c / half, c * half
    else:
        raise ConfigError("give both --jmin-per-us and --jmax-per-us, or neither")
    if args.points < 2:
        raise ConfigError("scan needs at least 2 points")
    if args.points > _MAX_POINTS:
        raise ConfigError(f"--points must be at most {_MAX_POINTS}, got {args.points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"scan bounds must be finite, got lo={lo}, hi={hi}")
    if hi <= lo:
        raise ConfigError("scan bounds must satisfy lo < hi")
    if lo <= 0:
        raise ConfigError("log scan bounds must be positive")
    if not (in_range(lo / 1e6, PUMP_RANGE_PER_US) and in_range(hi / 1e6, PUMP_RANGE_PER_US)):
        lo_us, hi_us = PUMP_RANGE_PER_US
        raise ConfigError(
            f"pump grid {lo / 1e6:g} to {hi / 1e6:g}/us (--jmin-per-us, --jmax-per-us or "
            f"--decades) must lie between {lo_us:g} and {hi_us:g}/us"
        )
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (args.points - 1)
    return [10.0 ** (a + k * step) for k in range(args.points - 1)] + [10.0**b]


def _saturation_center(pump, cfg) -> float:
    """pump(atom, cavity), the centre of a default grid; at g = 0 no pump saturates the atom."""
    if cfg.cavity.g_max == 0:
        raise ConfigError(
            "cavity.g_mhz is 0, so no saturation pump centers the default grid; "
            "give --jmin-per-us and --jmax-per-us"
        )
    return pump(cfg.atom, cfg.cavity)


def _cmd_steady(args) -> int:
    from .config import RATE_RANGE_MHZ, in_range, load_config
    from .resonant_detection import _detected_photons, _empty_photons
    from .steady_state import solve_stationary

    cfg = load_config(args.config)
    # the local coupling, like cavity.g_mhz, must be in RATE_RANGE_MHZ (NaN and inf are not)
    if args.g_frac is not None and not in_range(
        args.g_frac * cfg.resolved["cavity"]["g_mhz"], RATE_RANGE_MHZ
    ):
        raise ConfigError(
            f"--g-frac must be finite and keep the local coupling in the range of "
            f"cavity.g_mhz, got {args.g_frac}"
        )
    g_local = None if args.g_frac is None else args.g_frac * cfg.cavity.g_max
    state = solve_stationary(cfg.atom, cfg.cavity, cfg.drive, g_local=g_local)
    n_empty = _empty_photons(cfg.cavity, cfg.drive.j_in)
    tau = cfg.drive.tau
    payload = {
        "version": __version__,
        "config_sha256": cfg.digest,
        "n_photons": state.n_photons,
        "n_photons_empty": n_empty,
        "rho11": state.rho11,
        "gamma_eff_mhz": state.gamma_eff / MHZ,
        "light_shift_mhz": state.light_shift / MHZ,
        "branch_count": state.branch_count,
        "all_roots": list(state.all_roots),
        "n_out": _detected_photons(state.n_photons, cfg.cavity, tau),
        "n_out_empty": _detected_photons(n_empty, cfg.cavity, tau),
    }
    _write_text(args.out, _json(payload))
    print(
        f"N={state.n_photons:.6g} with atom vs {n_empty:.6g} empty "
        f"({state.branch_count} branch(es)) -> {args.out}"
    )
    return 0


@dataclass(frozen=True)
class _PumpScan:
    """One pump-scan command: its grid, the report at each pump rate, its CSV columns.

    The CSV is named after the command.  Rows are j_in [1/us] followed by the
    report fields of columns; the stdout summary is formatted with the point
    count n and, when best names a column, that column's maximum s and its
    pump rate j.  Where that column is 0 on every row, the summary says so.
    """

    help: str
    points: int
    decades: float | None  # None: a --decades flag, else this fixed span
    center: Callable  # cfg -> default grid centre [1/s]
    report: Callable  # (cfg, drive) -> report dataclass
    columns: tuple[tuple[str, str], ...]  # (report field, CSV header)
    summary: str
    best: str | None = None


# each scan imports its scheme when it runs and looks its functions up then,
# so rebinding them (as a tracer does) reaches the scans
def _resonant_center(cfg) -> float:
    from .resonant_detection import saturation_pump

    return _saturation_center(saturation_pump, cfg)


def _resonant_report(cfg, drive):
    from .resonant_detection import snr_resonant

    return snr_resonant(cfg.atom, cfg.cavity, drive)


def _dispersive_center(cfg) -> float:
    from .homodyne_detection import dispersive_saturation_pump

    return _saturation_center(dispersive_saturation_pump, cfg)


def _dispersive_report(cfg, drive):
    from .homodyne_detection import homodyne_report

    return homodyne_report(cfg.atom, cfg.cavity, drive)


def _motion_report(cfg, drive):
    from .motion import spatial_averages

    return spatial_averages(cfg.atom, cfg.cavity, drive)


_PUMP_SCANS = {
    "scan-pump": _PumpScan(
        help="resonant SNR and budget vs pump rate",
        points=200,
        decades=None,
        center=_resonant_center,
        report=_resonant_report,
        columns=(
            ("n_out_empty", "N_out_empty [photons]"),
            ("n_out_atom", "N_out_atom [photons]"),
            ("snr", "S [dimensionless]"),
            ("m_scattered", "M [photons]"),
            ("saturation", "saturation [dimensionless]"),
        ),
        summary="{n} points, max S={s:.4g} at j_in={j:.4g}/us",
        best="snr",
    ),
    "homodyne-scan": _PumpScan(
        help="dispersive SNR and budget vs pump rate",
        points=200,
        decades=None,
        center=_dispersive_center,
        report=_dispersive_report,
        columns=(
            ("phase_shift", "phase_shift [rad]"),
            ("snr", "S_hom [dimensionless]"),
            ("m_scattered", "M [photons]"),
            ("n_out", "N_out [photons]"),
            ("small_angle_valid", "small_angle_valid [bool]"),
        ),
        summary="{n} points, max S_hom={s:.4g} at j_in={j:.4g}/us",
        best="snr",
    ),
    "motion-averages": _PumpScan(
        help="axis-averaged back-action vs pump rate",
        points=41,
        decades=2.0,
        center=lambda cfg: cfg.drive.j_in,
        report=_motion_report,
        columns=(
            ("s_bar", "S_bar [dimensionless]"),
            ("m_bar", "M_bar [photons]"),
            ("d_bar", "D_bar [kg^2 m^2/s^3]"),
            ("delta_p", "delta_p [hbar k]"),
            ("delta_z", "delta_z [m]"),
        ),
        summary="{n} pump points",
    ),
}


def _warn_once_per_class(caught, starts) -> None:
    """Re-issue recorded warnings once per class: the first message and how many grid points raised it.

    Each is issued from the fixed location <cavdet>:0, so its stderr line
    names no source file or line of this module and echoes no source line.
    """
    first, points = {}, Counter()
    for a, b in zip(starts, [*starts[1:], len(caught)]):
        for w in caught[a:b]:
            first.setdefault(w.category, w.message)
        points.update({w.category for w in caught[a:b]})
    for category, message in first.items():
        text = f"{message} ({points[category]} of {len(starts)} grid points)"
        warnings.warn_explicit(text, category, "<cavdet>", 0, module=__name__)


def _cmd_pump_scan(args) -> int:
    from .config import load_config

    scan = _PUMP_SCANS[args.command]
    cfg = load_config(args.config)
    grid = _pump_grid(args, lambda: scan.center(cfg))
    fields = [name for name, _ in scan.columns]
    rows, starts = [], []  # starts[k]: how many warnings were recorded before grid point k
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for j in grid:
                starts.append(len(caught))
                rep = scan.report(cfg, DriveParams(j_in=j, tau=cfg.drive.tau))
                rows.append((j / 1e6, *(getattr(rep, name) for name in fields)))
    finally:
        # also when a grid point raises, so the earlier points' warnings
        # are issued before the error
        _warn_once_per_class(caught, starts)
    meta = [("version", __version__), ("command", args.command), ("config_sha256", cfg.digest)]
    header = ["j_in [1/us]", *(title for _, title in scan.columns)]
    _write_text(args.out, _csv(meta, header, rows))
    text, summary = scan.summary, {"n": len(rows)}
    if scan.best is not None:
        col = 1 + fields.index(scan.best)
        top = max(rows, key=lambda r: r[col])
        summary.update(s=top[col], j=top[0])
        if not any(r[col] for r in rows):
            # S is 0 at every pump rate (an uncoupled atom): none is the best
            name = scan.columns[col - 1][1].split(" [")[0]  # the header without its unit
            text = "{n} points, " + name + "=0 at every pump rate"
    print(f"wrote {args.out}: " + text.format(**summary))
    return 0


def _cmd_simulate(args) -> int:
    import numpy as np

    from .config import load_config, parse_config
    from .trajectory_sim import _check_step, run_ensemble

    for flag, value in (("--threads", args.threads), ("--decimate", args.decimate)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    cfg = load_config(args.config)
    # the flags are sim values of the config, so its digest covers them
    flags = {
        "seed": args.seed,
        "n_atoms": args.atoms,
        "threshold": args.threshold,
        "window_us": args.window_us,
    }
    sim_section = {**cfg.resolved["sim"], **{k: v for k, v in flags.items() if v is not None}}
    cfg = parse_config({**cfg.resolved, "sim": sim_section})
    sim = cfg.sim
    try:
        _check_step(cfg.atom, cfg.guide, sim)
    except StepTooLarge as exc:  # the config's own step against its own guide
        raise ConfigError(f"sim.dt_us={sim_section['dt_us']!r} is too coarse: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    meta = [
        ("version", __version__),
        ("command", "simulate"),
        ("config_sha256", cfg.digest),
        ("seed", str(sim.seed)),
    ]
    header = "".join(f"# {k}: {v}\n" for k, v in meta)
    # each atom's rows are one % over a repeated row template that carries its index
    traj_row = ",".join([_FLOAT] * 5) + "\n"
    click_row = _FLOAT + "\n"
    # stream into partial files and write the report beside them; all three are
    # renamed only once all three are whole, so a failed run leaves the previous
    # run's three files as they were
    names = ("trajectories.csv", "clicks.csv", "report.json")
    partial = [out_dir / (name + ".partial") for name in names]
    try:
        with open(partial[0], "w", newline="\n") as traj_file, open(
            partial[1], "w", newline="\n"
        ) as click_file:
            traj_file.write(header + "trajectory,t [us],x [um],y [um],z [um],N [photons]\n")
            click_file.write(header + "trajectory,t [us]\n")

            def sink(index, rec):
                step = args.decimate
                rows = np.column_stack(
                    (rec.times[::step] / US, rec.position[::step] / UM, rec.n_photons[::step])
                )
                traj_file.write((f"{index},{traj_row}" * len(rows)) % tuple(rows.ravel().tolist()))
                clicks_us = (rec.click_times / US).tolist()
                click_file.write((f"{index},{click_row}" * len(clicks_us)) % tuple(clicks_us))

            report = run_ensemble(
                cfg.atom,
                cfg.cavity,
                cfg.drive,
                cfg.guide,
                sim,
                record_sink=sink,
            )
        payload = {
            "version": __version__,
            "config_sha256": cfg.digest,
            "config": cfg.resolved,
            "seed": sim.seed,
            "n_atoms": sim.n_atoms,
            "include_recoil": sim.include_recoil,
            "threshold": cfg.resolved["sim"]["threshold"],
            "window_us": cfg.resolved["sim"]["window_us"],
            "efficiency": report.efficiency,
            "dark_rate_per_s": report.dark_rate,
            "dark_rate_ci_per_s": list(report.dark_rate_ci),
            "dark_rate_convention_range_per_s": list(report.dark_rate_convention_range),
            "mean_m": report.mean_m,
            "detections": [[i, t / US] for i, t in report.detections],
        }
        with open(partial[2], "w", newline="\n") as report_file:
            report_file.write(_json(payload))
    except BaseException:
        for path in partial:
            path.unlink(missing_ok=True)
        raise
    for path, name in zip(partial, names):
        os.replace(path, out_dir / name)
    print(
        f"efficiency {report.efficiency:.3f}, dark rate {report.dark_rate:.0f}/s, "
        f"mean M {report.mean_m:.1f} ({sim.n_atoms} atoms) -> {out_dir}"
    )
    return 0


def _cmd_design_cavity(args) -> int:
    from .fiber_cavity import FiberCavityDesign, derive, design_to_cavity, v_number

    if (args.length_mm is None) == (args.length_half_waves is None):
        raise ConfigError("give exactly one of --length-mm or --length-half-waves")
    if (args.mode_index is None) == (args.gap_um is None):
        raise ConfigError("give exactly one of --mode-index or --gap-um")
    if not (math.isfinite(args.extra_loss_mhz) and args.extra_loss_mhz >= 0):
        raise ConfigError(
            f"--extra-loss-mhz must be finite and non-negative, got {args.extra_loss_mhz}"
        )
    n = args.n_core
    if args.length_mm is not None:
        length = args.length_mm * 1e-3
    else:
        # the design's own index rule, before the index converts half waves to a length
        if not (math.isfinite(n) and n > args.n_clad > 1.0):
            raise ConfigError(
                f"--n-core must be finite and above --n-clad > 1, got {n} and {args.n_clad}"
            )
        if not (math.isfinite(args.lambda_nm) and args.lambda_nm > 0):
            raise ConfigError(f"--lambda-nm must be finite and positive, got {args.lambda_nm}")
        length = args.length_half_waves * (args.lambda_nm * 1e-9) / (2.0 * n)
    design = FiberCavityDesign(
        fiber_length=length,
        half_gap=0.0 if args.gap_um is None else 0.5 * args.gap_um * UM,
        core_radius=0.5 * args.core_um * UM,
        n_core=args.n_core,
        n_clad=args.n_clad,
        wavelength0=args.lambda_nm * 1e-9,
        mirror_transmission=args.transmission,
    )
    atom = AtomParams(gamma=args.gamma_mhz * MHZ)
    derived = derive(design, atom, mode_index=args.mode_index)
    cavity = design_to_cavity(derived, design.fiber_length, args.extra_loss_mhz * MHZ)
    payload = {
        "version": __version__,
        "inputs": {
            "core_um": args.core_um,
            "n_core": args.n_core,
            "n_clad": args.n_clad,
            "lambda_nm": args.lambda_nm,
            "length_mm": length / 1e-3,
            "transmission": args.transmission,
            "gamma_mhz": args.gamma_mhz,
            "extra_loss_mhz": args.extra_loss_mhz,
        },
        "v_number": v_number(design),
        "w0_um": derived.waist / UM,
        "rayleigh_um": derived.rayleigh / UM,
        "gap_um": 2.0 * derived.half_gap / UM,
        "mode_index": derived.mode_index,
        "q_modulus": derived.q_modulus,
        "q_phase_rad": derived.q_phase,
        "kappa_gap_mhz": derived.kappa_gap / MHZ,
        "kappa_t_mhz": derived.kappa_t / MHZ,
        "g_mhz": derived.g_max / MHZ,
        "gap_amplitude_ratio": derived.gap_amplitude_ratio,
        "cavity": {
            "g_mhz": cavity.g_max / MHZ,
            "kappa_t_mhz": cavity.kappa_t / MHZ,
            "kappa_loss_mhz": cavity.kappa_loss / MHZ,
            "delta_c_mhz": cavity.delta_c / MHZ,
            "waist_um": cavity.waist / UM,
            "length_mm": cavity.length / 1e-3,
        },
    }
    _write_text(args.out, _json(payload))
    print(
        f"w0={payload['w0_um']:.4g} um, 2d={payload['gap_um']:.4g} um "
        f"(m={derived.mode_index}), kappa_gap={payload['kappa_gap_mhz']:.4g} MHz, "
        f"g={payload['g_mhz']:.4g} MHz, kappa_T={payload['kappa_t_mhz']:.4g} MHz -> {args.out}"
    )
    return 0


def __getattr__(name):
    # cli.run_ensemble is trajectory_sim's binding at each read, never a copy:
    # code that rebinds it there (a tracer, a test) is what cli shows, and
    # nothing is left to restore in cli (perfbench/tests checks this)
    if name == "run_ensemble":
        from .trajectory_sim import run_ensemble

        return run_ensemble
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavdet",
        description="Single-atom cavity detection: solver scans, transit Monte Carlo, "
        "fiber-gap cavity design",
    )
    parser.add_argument("--version", action="version", version=f"cavdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="stationary state for one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="steady.json")
    p.add_argument("--g-frac", type=float, default=None, help="local coupling as fraction of g_max")
    p.set_defaults(func=_cmd_steady)

    for name, scan in _PUMP_SCANS.items():
        p = sub.add_parser(name, help=scan.help)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=name.replace("-", "_") + ".csv")
        p.add_argument("--points", type=int, default=scan.points)
        if scan.decades is None:
            p.add_argument("--decades", type=float, default=4.0)
        else:
            p.set_defaults(decades=scan.decades)
        p.add_argument("--jmin-per-us", type=float, default=None)
        p.add_argument("--jmax-per-us", type=float, default=None)
        p.set_defaults(func=_cmd_pump_scan)

    p = sub.add_parser("simulate", help="Monte Carlo transit ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="simout")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--atoms", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--window-us", type=float, default=None)
    p.add_argument("--threads", type=int, default=1, help="ignored: the ensemble runs in one process")
    p.add_argument("--decimate", type=int, default=20, help="trajectory CSV sampling step")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("design-cavity", help="fiber-gap cavity design calculator")
    p.add_argument("--core-um", type=float, required=True, help="core diameter in um")
    p.add_argument("--n-core", type=float, default=1.5)
    p.add_argument("--n-clad", type=float, default=1.496)
    p.add_argument("--lambda-nm", type=float, default=780.0)
    p.add_argument("--length-mm", type=float, default=None)
    p.add_argument("--length-half-waves", type=float, default=None)
    p.add_argument("--transmission", type=float, default=0.01)
    p.add_argument("--mode-index", type=int, default=None)
    p.add_argument("--gap-um", type=float, default=None)
    p.add_argument("--gamma-mhz", type=float, default=3.0)
    p.add_argument("--extra-loss-mhz", type=float, default=0.0)
    p.add_argument("--out", default="design.json")
    p.set_defaults(func=_cmd_design_cavity)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output: load_config raises ConfigError for the config
        path = exc.filename or args.out  # a failed write to an open file names none
        print(f"config error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    except (NotResonant, NotDispersive) as exc:
        print(f"model/domain error: {exc}", file=sys.stderr)
        return 3
    except CavdetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
