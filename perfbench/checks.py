"""Output checks, written independently of cavdet's own numerics.

Each check returns a list of failure messages; an empty list means the
output passed.  The benchmark counts every message as a failed operation.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# |h(N)| <= ROOT_RTOL * eta^2 at a returned root, the tolerance of the
# repository's root-invariant property test
ROOT_RTOL = 1e-8
# scalar and batched lower branches of one draw must agree this closely
AGREE_RTOL = 1e-6


def stationary_residual(n, g, gamma, delta_a, kappa, delta_c, eta2):
    """h(N) = N*[(kappa + gamma(N))^2 + (delta_c - U(N))^2] - eta^2 (SI, broadcasts)."""
    d = delta_a * delta_a + gamma * gamma + 2.0 * g * g * n
    damping = g * g * gamma / d
    shift = g * g * delta_a / d
    return n * ((kappa + damping) ** 2 + (delta_c - shift) ** 2) - eta2


def bad_roots(n, g, gamma, delta_a, kappa, delta_c, eta2) -> np.ndarray:
    """Mask of photon numbers that are not roots in [0, eta^2/kappa^2]."""
    n = np.asarray(n, dtype=float)
    with np.errstate(all="ignore"):
        res = stationary_residual(n, g, gamma, delta_a, kappa, delta_c, eta2)
        cap = eta2 / (kappa * kappa)
        ok = (n >= 0.0) & (n <= cap * (1.0 + 1e-9)) & (np.abs(res) <= ROOT_RTOL * eta2)
    return ~ok


def root_ok(n: float, g, gamma, delta_a, kappa, delta_c, eta2) -> bool:
    """Scalar form of ``bad_roots`` for one photon number (no numpy overhead)."""
    cap = eta2 / (kappa * kappa)
    res = stationary_residual(n, g, gamma, delta_a, kappa, delta_c, eta2)
    return 0.0 <= n <= cap * (1.0 + 1e-9) and abs(res) <= ROOT_RTOL * eta2


def root_set_problems(roots, g, gamma, delta_a, kappa, delta_c, eta2) -> int:
    """Number of defects in one scalar root set: bad roots, bad count or order."""
    roots = list(roots)
    problems = sum(not root_ok(n, g, gamma, delta_a, kappa, delta_c, eta2) for n in roots)
    if not 1 <= len(roots) <= 3 or roots != sorted(roots):
        problems += 1
    return problems


def in_band(value: float, target: float, rel: float) -> bool:
    return target * (1.0 - rel) <= value <= target * (1.0 + rel)


# --- transit report ----------------------------------------------------------

EFFICIENCY_BAND = (0.69, 0.85)
MEAN_M = (28.3, 0.15)
DARK_RATE_BAND = (250.0, 2500.0)
DARK_RATE_CLAIM = 750.0
BAND_MIN_ATOMS = 50  # below this the sampling error of the ensemble exceeds the bands
EFFICIENCY_Z = 3.29  # two-sided 99.9 % binomial allowance around the efficiency band


def transit_report_problems(report: dict) -> list[str]:
    """The acceptance bands of the transit Monte Carlo claim, applied to one report.json.

    The efficiency band is widened by the binomial sampling error of the
    run, so a run fails only when it is inconsistent with the band.
    """
    out = []
    n = report["n_atoms"]
    eff = report["efficiency"]
    if len(report["detections"]) != round(eff * n):
        out.append("efficiency does not match the detection list")
    if n >= BAND_MIN_ATOMS:
        lo, hi = EFFICIENCY_BAND
        allow = EFFICIENCY_Z * math.sqrt(max(eff * (1.0 - eff), 1e-12) / n)
        if not lo - allow <= eff <= hi + allow:
            out.append(f"efficiency {eff:.4f} outside {EFFICIENCY_BAND} (+-{allow:.3f})")
        if not in_band(report["mean_m"], *MEAN_M):
            out.append(f"mean M {report['mean_m']:.4g} outside 28.3 +-15%")
    rate = report["dark_rate_per_s"]
    if not DARK_RATE_BAND[0] <= rate <= DARK_RATE_BAND[1]:
        out.append(f"dark rate {rate:.1f}/s outside {DARK_RATE_BAND}")
    lo = min(report["dark_rate_ci_per_s"][0], report["dark_rate_convention_range_per_s"][0])
    hi = max(report["dark_rate_ci_per_s"][1], report["dark_rate_convention_range_per_s"][1])
    if not lo <= DARK_RATE_CLAIM <= hi:
        out.append(f"dark-rate hull [{lo:.0f}, {hi:.0f}] misses {DARK_RATE_CLAIM}/s")
    idx = [d[0] for d in report["detections"]]
    if idx != sorted(set(idx)) or any(not 0 <= i < n for i in idx):
        out.append("detections are not unique, ordered trajectory indices")
    return out


def warm_ensemble_problems(report: dict, warm, n_warm: int) -> list[str]:
    """A prefix ensemble run in-process must reproduce the CLI's first trajectories.

    Trajectory i depends only on (seed, i), so detections below n_warm and
    the dark-count stream must match the full run exactly.
    """
    out = []
    want = [(i, t) for i, t in report["detections"] if i < n_warm]
    got = [(i, t * 1e6) for i, t in warm.detections]
    if len(want) != len(got) or any(
        a[0] != b[0] or abs(a[1] - b[1]) > 1e-9 * max(abs(a[1]), 1.0) for a, b in zip(want, got)
    ):
        out.append("in-process prefix ensemble detections differ from the CLI run")
    if warm.dark_rate != report["dark_rate_per_s"]:
        out.append("in-process dark rate differs from the CLI run")
    return out


# --- design-study outputs ----------------------------------------------------

def _csv_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def steady_problems(path: Path, j_in: float, tau: float, kappa_t: float, kappa: float,
                    g: float, gamma: float) -> list[str]:
    """Resonant steady state: roots, empty-cavity photons, atom darkens the cavity."""
    d = json.loads(path.read_text())
    out = []
    eta2 = j_in * kappa_t
    if root_set_problems(d["all_roots"], g, gamma, 0.0, kappa, 0.0, eta2):
        out.append("steady: a reported root fails the residual check")
    if d["branch_count"] != len(d["all_roots"]) or d["n_photons"] != d["all_roots"][0]:
        out.append("steady: branch bookkeeping inconsistent")
    if not math.isclose(d["n_out_empty"], j_in * tau * (kappa_t / kappa) ** 2, rel_tol=1e-9):
        out.append("steady: empty-cavity output photons wrong")
    if not 0.0 < d["n_out"] <= d["n_out_empty"]:
        out.append("steady: atom does not darken the resonant cavity")
    return out


def scan_pump_problems(path: Path) -> list[str]:
    """Pump scan of the main cavity: max S = 35 +- 5 %."""
    _, rows = _csv_rows(path)
    best = max(r[3] for r in rows)
    return [] if in_band(best, 35.0, 0.05) else [f"scan-pump: max S {best:.4g} outside 35 +-5%"]


def homodyne_scan_problems(path: Path, row: int) -> list[str]:
    """Dispersive design point at 50 photons/us: S_hom = 4.3 +- 5 %, M = 0.49 +- 5 %."""
    _, rows = _csv_rows(path)
    j, _, s_hom, m = rows[row][:4]
    out = []
    if not math.isclose(j, 50.0, rel_tol=1e-6):
        out.append(f"homodyne-scan: row {row} is at j_in={j:.6g}/us, not 50/us")
    if not in_band(s_hom, 4.3, 0.05):
        out.append(f"homodyne-scan: S_hom {s_hom:.4g} outside 4.3 +-5%")
    if not in_band(m, 0.49, 0.05):
        out.append(f"homodyne-scan: M {m:.4g} outside 0.49 +-5%")
    return out


def motion_problems(path: Path) -> list[str]:
    """Low-saturation averages: M_bar is linear and S_bar goes as the square root of the pump."""
    _, rows = _csv_rows(path)
    j = np.array([r[0] for r in rows])
    s_bar = np.array([r[1] for r in rows])
    m_bar = np.array([r[2] for r in rows])
    out = []
    if not np.allclose(m_bar / j, m_bar[0] / j[0], rtol=1e-9):
        out.append("motion-averages: M_bar not proportional to the pump")
    if not np.allclose(s_bar / np.sqrt(j), s_bar[0] / np.sqrt(j[0]), rtol=1e-9):
        out.append("motion-averages: S_bar not proportional to sqrt(pump)")
    if not np.all(np.isfinite(np.array(rows))) or np.any(np.array(rows) <= 0):
        out.append("motion-averages: non-finite or non-positive entries")
    return out


DESIGN_BANDS = {  # fiber-gap design claim, mode 13 of a 10.4 mm, 5 um core design
    "w0_um": (2.92, 0.01),
    "gap_um": (5.079, 0.001),
    "kappa_gap_mhz": (6.23, 0.03),
    "g_mhz": (12.2, 0.02),
    "kappa_t_mhz": (7.65, 0.01),
}


def design_problems(path: Path) -> list[str]:
    d = json.loads(path.read_text())
    return [
        f"design-cavity: {k}={d[k]:.5g} outside {t} +-{100 * r:g}%"
        for k, (t, r) in DESIGN_BANDS.items()
        if not in_band(d[k], t, r)
    ]


def optimum_problems(label: str, opt, endpoint_snrs: tuple[float, float]) -> list[str]:
    """An optimizer result is finite, inside its bounds, and no worse than either bound."""
    out = []
    if not (math.isfinite(opt.snr) and opt.snr > 0 and opt.kappa_t > 0 and opt.j_in > 0):
        out.append(f"{label}: non-finite or non-positive optimum")
    if opt.snr < max(endpoint_snrs) * (1.0 - 1e-6):
        out.append(f"{label}: optimum S {opt.snr:.6g} below a bound's {max(endpoint_snrs):.6g}")
    return out
