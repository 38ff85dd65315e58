"""Seeded stationary-solver draws and the scalar and batched solver phases.

The draws cover the domain of the repository's root-invariant property
test plus the strong-saturation corner (resonant, little or no loss,
kappa_t 0.1-3 MHz, j_in 1e9-1e12 /s) that the other workloads never
reach, and always end with one pinned case that both cubic solver paths
get wrong.  The corner and the pinned case are the solver's known defect:
there the scalar path can report a spurious low branch and the batched
path 0, so the workload reports their residual failures as known defects
rather than failed operations.  Quantities are stored in MHz and 1/s; they become
angular rates only when parameter objects are built.
"""
from __future__ import annotations

import math

import cavdet
import numpy as np

from checks import AGREE_RTOL, bad_roots

GAMMA_MHZ = 3.0
TAU = 1e-5
FIELDS = ("g", "kt", "kl", "da", "dc", "j")
# g = 30 MHz, kappa_t = 0.109375 MHz, resonant, lossless: one true root near
# N = 1.434e6, which the scalar path reports as a spurious two-branch set
PINNED = {"g": 30.0, "kt": 0.109375, "kl": 0.0, "da": 0.0, "dc": 0.0, "j": 985791632184.0}
BATCH_POINTS = 64  # couplings per batched call, g_draw * (1/64, 2/64, ..., 1)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def make_draws(seed: int, n_domain: int, n_corner: int) -> dict[str, np.ndarray]:
    """Domain draws, then corner draws, then the pinned case (n_domain + n_corner + 1)."""
    rng = np.random.default_rng([seed, 20])
    dom = {
        "g": rng.uniform(0.0, 40.0, n_domain),
        "kt": rng.uniform(0.1, 100.0, n_domain),
        "kl": rng.uniform(0.0, 100.0, n_domain),
        "da": rng.uniform(-300.0, 300.0, n_domain),
        "dc": rng.uniform(-300.0, 300.0, n_domain),
        "j": _log_uniform(rng, 1e3, 1e12, n_domain),
    }
    lossless = rng.random(n_corner) < 0.5
    corner = {
        "g": rng.uniform(1.0, 40.0, n_corner),
        "kt": _log_uniform(rng, 0.1, 3.0, n_corner),
        "kl": np.where(lossless, 0.0, _log_uniform(rng, 1e-3, 0.1, n_corner)),
        "da": np.zeros(n_corner),
        "dc": np.zeros(n_corner),
        "j": _log_uniform(rng, 1e9, 1e12, n_corner),
    }
    return {k: np.concatenate([dom[k], corner[k], [PINNED[k]]]) for k in FIELDS}


def physical(draws: dict[str, np.ndarray], idx=slice(None)) -> dict[str, np.ndarray]:
    """SI arguments of the independent residual for the selected draws."""
    d = {k: np.asarray(v[idx], dtype=float) for k, v in draws.items()}
    return {
        "g": d["g"] * cavdet.MHZ,
        "gamma": GAMMA_MHZ * cavdet.MHZ,
        "delta_a": d["da"] * cavdet.MHZ,
        "kappa": (d["kt"] + d["kl"]) * cavdet.MHZ,
        "delta_c": d["dc"] * cavdet.MHZ,
        "eta2": d["j"] * d["kt"] * cavdet.MHZ,
    }


def _params(draws, i):
    m = cavdet.MHZ
    atom = cavdet.AtomParams(gamma=GAMMA_MHZ * m, delta_a=float(draws["da"][i]) * m)
    cavity = cavdet.CavityParams(
        g_max=float(draws["g"][i]) * m,
        kappa_t=float(draws["kt"][i]) * m,
        kappa_loss=float(draws["kl"][i]) * m,
        delta_c=float(draws["dc"][i]) * m,
    )
    return atom, cavity, cavdet.DriveParams(j_in=float(draws["j"][i]), tau=TAU)


def scalar_phase(draws, lo: int, hi: int) -> np.ndarray:
    """``solve_stationary`` on draws [lo, hi); every root, NaN-padded to 3 columns.

    A call that raises a cavdet error leaves its row all NaN.
    """
    out = np.full((hi - lo, 3), np.nan)
    for row, i in enumerate(range(lo, hi)):
        try:
            roots = cavdet.solve_stationary(*_params(draws, i)).all_roots
        except cavdet.CavdetError:
            continue
        out[row, : len(roots)] = roots
    return out


def batched_inputs(draws, idx) -> list:
    """(atom, cavity, drive, g_values) for a batched call on each selected draw."""
    frac = np.arange(1, BATCH_POINTS + 1) / BATCH_POINTS
    out = []
    for i in idx:
        atom, cavity, drive = _params(draws, i)
        out.append((atom, cavity, drive, cavity.g_max * frac))
    return out


def batched_phase(inputs) -> np.ndarray:
    """``stationary_scan`` on each prepared input; one row of photon numbers per draw."""
    return np.array([cavdet.stationary_scan(*args) for args in inputs])


def scalar_bad_rows(draws, roots: np.ndarray, idx=slice(None)) -> np.ndarray:
    """Rows whose root set fails: a bad root, no root, or roots not strictly ascending."""
    p = physical(draws, idx)
    valid = ~np.isnan(roots)
    bad = valid.sum(axis=1) == 0
    for k in range(3):
        col = valid[:, k]
        bad |= col & bad_roots(roots[:, k], **p)
        if k:
            bad |= col & ~(roots[:, k] > roots[:, k - 1])
    return bad


def batched_bad_rows(draws, idx, batched: np.ndarray, scalar_low: np.ndarray) -> tuple:
    """(bad elements per row, rows whose last element disagrees with the scalar lower root)."""
    p = physical(draws, idx)
    frac = np.arange(1, BATCH_POINTS + 1) / BATCH_POINTS
    g = p["g"][:, None] * frac
    cols = {k: (v[:, None] if np.ndim(v) else v) for k, v in p.items() if k != "g"}
    bad = bad_roots(batched, g, **cols).sum(axis=1)
    last = batched[:, -1]
    with np.errstate(invalid="ignore"):
        disagree = ~(np.abs(last - scalar_low) <= AGREE_RTOL * np.maximum(np.abs(scalar_low), 1e-300))
    return bad, disagree
