"""Monte Carlo transits of guided atoms through the cavity mode.

Axes: x is the cavity axis (standing wave), y the guide axis the atoms
travel along, z vertical.  The guide confines x and z harmonically at
trap_omega and leaves y free.  Atoms start three waists upstream with
thermal position and velocity spreads.

The cavity field is slaved to the instantaneous atom position (kappa
exceeds every motional rate here by orders of magnitude), so each step
just re-solves the stationary photon number at the local coupling.
Detector clicks are an inhomogeneous Poisson process at the detected
output rate; a sliding-window count with a minimum-count threshold then
flags atom transits as dips.  An excursion below threshold must persist
for min_dip before it counts as a detection event; this persistence
requirement is a detector convention, and the reported dark rate carries
both a statistical confidence interval and the spread obtained by varying
the convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import warnings

import numpy as np

from .errors import ConfigError, QuasiStaticViolated, StepTooLarge
from .params import HBAR, K_B, KHZ, AtomParams, CavityParams, DriveParams, US, require_finite
from .resonant_detection import _detected_rate
from .steady_state import _lower_branch, _scaled, empty_cavity_state, stationary_scan

PRESENCE_WAISTS = 3.0  # |y| within this many waists counts as "atom present"
_DIP_SWEEP = (1, 2, 3, 4, 5)  # persistence conventions (in strides) for the dark-rate spread
# most atoms stepped together with recoil: position, N and rho11 cost 40 B
# per atom-step, so 2,001 steps x 512 atoms hold about 41 MB
BLOCK_ATOMS = 512
# most atoms solved together without recoil: at 2,001 steps, blocks of 16
# raised the 600-atom run's peak RSS by 0.2 MB, and larger ones ran slower
BALLISTIC_ATOMS = 16
_STEP_BLOCK = 256  # steps of uniforms and normals an atom draws at a time


@dataclass(frozen=True)
class GuideParams:
    """Harmonic guide for the transverse axes plus the longitudinal beam."""

    trap_omega: float = 37.0 * KHZ
    mean_velocity: float = 0.4
    temperature: float = 30.0 * 1e-6  # the config's own expression

    def __post_init__(self):
        require_finite(self, "guide")
        if self.trap_omega <= 0:
            raise ConfigError("guide.trap_omega must be positive")
        if self.mean_velocity < 0:
            raise ConfigError("guide.mean_velocity must be non-negative")
        if self.temperature < 0:
            raise ConfigError("guide.temperature must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Integration, detection, and ensemble settings."""

    dt: float = 0.05 * US
    window: float = 8.0 * US
    stride: float = 1.0 * US
    threshold: int = 11
    min_dip: float = 3.0 * US
    duration: float = 100.0 * US
    seed: int = 0
    n_atoms: int = 500
    include_recoil: bool = True
    dark_windows: int = 20000

    def __post_init__(self):
        require_finite(self, "sim")
        if self.dt <= 0 or self.window <= 0 or self.stride <= 0:
            raise ConfigError("sim.dt, sim.window, sim.stride must be positive")
        if self.dt > self.window / 20.0:
            raise ConfigError("sim.dt must not exceed window/20")
        if self.stride > self.window:
            raise ConfigError("sim.stride must not exceed the window")
        if self.threshold < 0:
            raise ConfigError("sim.threshold must be non-negative")
        if self.min_dip < 0:
            raise ConfigError("sim.min_dip must be non-negative")
        if self.duration < self.window:
            raise ConfigError("sim.duration must cover at least one window")
        if self.seed < 0:
            raise ConfigError("sim.seed must be non-negative")
        if self.n_atoms < 1:
            raise ConfigError("sim.n_atoms must be at least 1")
        if self.dark_windows < 1:
            raise ConfigError("sim.dark_windows must be at least 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated transit at full time resolution."""

    times: np.ndarray
    position: np.ndarray
    n_photons: np.ndarray
    click_times: np.ndarray
    window_times: np.ndarray
    windowed_counts: np.ndarray
    m_scattered: float


@dataclass(frozen=True)
class DetectionReport:
    """Ensemble outcome.

    dark_rate_ci is the 95% Poisson interval at the configured event
    convention; dark_rate_convention_range is the spread of the point
    estimate when the dip-persistence requirement sweeps 1 to 5 strides.
    detections holds (trajectory index, first qualifying event time).
    """

    efficiency: float
    dark_rate: float
    dark_rate_ci: tuple[float, float]
    dark_rate_convention_range: tuple[float, float]
    mean_m: float
    detections: tuple[tuple[int, float], ...]
    n_atoms: int


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory stream, addressed by (seed, index) alone."""
    return np.random.default_rng(np.random.SeedSequence([seed, 0, index]))


def _dark_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def sample_initial(
    guide: GuideParams, atom: AtomParams, cavity: CavityParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Thermal initial condition, three waists upstream along the guide.

    Transverse coordinates are drawn from the harmonic-oscillator thermal
    distribution (position variance k_B*T/(m*omega^2), velocity variance
    k_B*T/m per axis); the longitudinal velocity adds the same thermal
    spread to the mean drift.
    """
    sig_x = math.sqrt(K_B * guide.temperature / atom.mass) / guide.trap_omega
    sig_v = math.sqrt(K_B * guide.temperature / atom.mass)
    pos = np.array(
        [rng.normal(0.0, sig_x), -PRESENCE_WAISTS * cavity.waist, rng.normal(0.0, sig_x)]
    )
    vel = np.array(
        [
            rng.normal(0.0, sig_v),
            guide.mean_velocity + rng.normal(0.0, sig_v),
            rng.normal(0.0, sig_v),
        ]
    )
    return pos, vel


def local_coupling(position, cavity: CavityParams, atom: AtomParams):
    """Coupling at a point: Gaussian envelope times |standing wave|.

    position is (3,) or (n, 3) as (x, y, z); returns matching scalars.
    """
    p = np.asarray(position, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    envelope = np.exp(-(y * y + z * z) / cavity.waist**2)
    g = cavity.g_max * envelope * np.abs(np.cos(atom.k * x))
    return float(g) if p.ndim == 1 else g


def windowed_counts(click_times, window: float, stride: float, duration: float):
    """Sliding-window click counts.

    Windows are [t, t + window) with starts spaced by stride from zero up
    to duration - window.  Returns (window_start_times, counts).
    """
    if stride > window:
        raise ValueError("stride must not exceed the window")
    clicks = np.asarray(click_times, dtype=float)
    n_windows = int(math.floor((duration - window) / stride + 1e-9)) + 1
    if n_windows < 1:
        raise ValueError("duration shorter than one window")
    starts = np.arange(n_windows) * stride
    counts = np.searchsorted(clicks, starts + window, side="left") - np.searchsorted(
        clicks, starts, side="left"
    )
    return starts, counts


def detect_events(window_times, counts, threshold: int, min_dip: float) -> np.ndarray:
    """Start times of below-threshold excursions in a windowed count series.

    A maximal contiguous run of windows with counts < threshold is one
    event, stamped at its first window; runs spanning less than min_dip
    (in the time units of window_times) are discarded.
    """
    counts = np.asarray(counts)
    below = counts < threshold
    if not below.any():
        return np.empty(0, dtype=float)
    edges = np.diff(np.concatenate(([False], below, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    if min_dip > 0.0:
        times = np.asarray(window_times, dtype=float)
        stride = times[1] - times[0] if times.size > 1 else math.inf
        need = max(1, math.ceil(min_dip / stride - 1e-9))
        keep = (ends - starts) >= need
        starts = starts[keep]
    return np.asarray(window_times, dtype=float)[starts]


def _poisson_times(times, rate, rng: np.random.Generator) -> np.ndarray:
    """Inhomogeneous Poisson arrivals by time rescaling of the rate integral."""
    increments = 0.5 * (rate[1:] + rate[:-1]) * np.diff(times)
    lam = np.concatenate(([0.0], np.cumsum(increments)))
    total = lam[-1]
    k = rng.poisson(total)
    u = np.sort(rng.uniform(0.0, total, k))
    t = np.interp(u, lam, times)
    if t.size:
        t = t[np.concatenate(([True], np.diff(t) > 0))]
    return t


def _check_step(atom, guide, sim) -> float:
    """Raise StepTooLarge if dt undersamples the trap or the standing wave.

    Returns the characteristic speed, the mean drift plus 4 thermal sigmas.
    """
    v_char = guide.mean_velocity + 4.0 * math.sqrt(K_B * guide.temperature / atom.mass)
    bound = min(0.1 / guide.trap_omega, atom.wavelength / (8.0 * max(v_char, 1e-12)))
    if sim.dt > bound:
        raise StepTooLarge(
            f"dt={sim.dt:.3g} s undersamples the trap or the standing wave "
            f"(bound {bound:.3g} s)"
        )
    return v_char


def _rho11(g2, n, d0):
    """Excited-state population at Gamma-scaled g^2 and photon number n.

    d0 = (delta_a/Gamma)^2 + 1, as _lower_branch forms it.
    """
    g2n = g2 * n
    return g2n / (d0 + 2.0 * g2n)


def _record(times, position, n_t, rho11_t, gam, cavity, sim, rng) -> TrajectoryRecord:
    """Scattered photons, detector clicks and windowed counts of one transit."""
    m_scattered = float(np.trapezoid(2.0 * gam * rho11_t, times))
    clicks = _poisson_times(times, _detected_rate(n_t, cavity), rng)
    window_times, counts = windowed_counts(clicks, sim.window, sim.stride, duration=sim.duration)
    return TrajectoryRecord(
        times=times,
        position=position,
        n_photons=n_t,
        click_times=clicks,
        window_times=window_times,
        windowed_counts=counts,
        m_scattered=m_scattered,
    )


def _kick_count(u: float, lam: float, p0: float) -> int:
    """Poisson(lam) count by inversion of the uniform u; p0 = exp(-lam)."""
    count, p, cdf = 0, p0, p0
    while u >= cdf and p > 0.0:
        count += 1
        p *= lam / count
        cdf += p
    return count


def simulate_block(
    atom: AtomParams,
    cavity: CavityParams,
    drive: DriveParams,
    guide: GuideParams,
    sim: SimConfig,
    rngs,
) -> list[TrajectoryRecord]:
    """Transits of a block of atoms, one generator each, as arrays over the block.

    The cavity field is quasi-static and detector clicks are Poisson; a
    block of one atom is a single transit.  Raises StepTooLarge where
    sim.dt is too coarse; run_ensemble, not each block, warns where the
    field is not slaved.  Without recoil the kinematics are closed-form:
    the whole block's positions are one (atoms, steps, 3) array, and its
    photon numbers are one cold stationary_scan over the (atoms, steps)
    couplings.  With
    recoil, each step applies hbar*k kicks in isotropic directions at the
    spontaneous rate 2*Gamma*rho11 plus a Gaussian axial momentum-diffusion
    kick, so the motion is integrated step by step (exact harmonic
    rotations, so the integrator itself introduces no secular error), all
    atoms of the block at once; each step's photon numbers are one
    _lower_branch call, warm-started from the step before.  Either way each
    photon number is a checked root whose Newton sequence depends only on
    its own element.  Each atom draws from its own generator, in this
    order: its initial condition; with recoil, for each run of _STEP_BLOCK
    steps, the uniforms that set its Poisson kick counts by inversion and
    its axial-diffusion normals, then the directions of each of its kicks
    as it happens; its detector clicks after the transit.  Record i
    therefore depends only on rngs[i], not on the block it is solved in.
    """
    _check_step(atom, guide, sim)
    n_atoms = len(rngs)
    n_steps = int(round(sim.duration / sim.dt))
    times = np.arange(n_steps + 1) * sim.dt
    gam = atom.gamma
    _, e2, kap_s, da_s, dc_s = _scaled(atom, cavity, 0.0, drive.j_in)
    d0 = da_s * da_s + 1.0
    om = guide.trap_omega
    initial = [sample_initial(guide, atom, cavity, rng) for rng in rngs]
    pos = np.array([p for p, _ in initial])
    vel = np.array([v for _, v in initial])
    if not sim.include_recoil:
        cos_t, sin_t = np.cos(om * times)[:, None], np.sin(om * times)[:, None]
        position = np.empty((n_atoms, n_steps + 1, 3))
        position[..., ::2] = pos[:, None, ::2] * cos_t + (vel[:, None, ::2] / om) * sin_t
        position[..., 1] = pos[:, 1:2] + vel[:, 1:2] * times
        g_t = local_coupling(position, cavity, atom)
        n_t = stationary_scan(atom, cavity, drive, g_t)
        rho11_t = _rho11(_scaled(atom, cavity, g_t, drive.j_in)[0], n_t, d0)
        return [
            _record(times, position[j], n_t[j], rho11_t[j], gam, cavity, sim, rng)
            for j, rng in enumerate(rngs)
        ]
    neg_inv_w0sq = -1.0 / cavity.waist**2
    k_opt = atom.k
    inv_gam2 = 1.0 / gam**2
    hk_m = HBAR * k_opt / atom.mass  # recoil velocity
    dt = sim.dt
    # axial diffusion kick: normal * diff_scale * g_env / (Gamma*kappa + g_local^2)
    diff_scale = hk_m * math.sqrt(2.0 * gam * drive.j_in * cavity.kappa_t * dt)
    gk = gam * cavity.kappa
    # one step of the harmonic guide as a rotation of (position, velocity)
    cw, sw_om, om_sw = math.cos(om * dt), math.sin(om * dt) / om, om * math.sin(om * dt)
    kick_rate = 2.0 * gam * dt  # Poisson mean of the kicks per unit rho11

    q, vq = pos[:, ::2].T.copy(), vel[:, ::2].T.copy()  # (x, z) rows, rotated by the guide
    y, vy = pos[:, 1].copy(), vel[:, 1].copy()
    position = np.empty((n_atoms, n_steps + 1, 3))
    n_t = np.empty((n_atoms, n_steps + 1))
    rho11_t = np.empty((n_atoms, n_steps + 1))
    n = None
    for i in range(n_steps + 1):
        g_env = cavity.g_max * np.exp((y * y + q[1] * q[1]) * neg_inv_w0sq)
        g_loc2 = (g_env * np.cos(k_opt * q[0])) ** 2
        g2 = g_loc2 * inv_gam2
        n = _lower_branch(g2, e2, kap_s, da_s, dc_s, n)
        rho = _rho11(g2, n, d0)
        position[:, i, ::2] = q.T
        position[:, i, 1] = y
        n_t[:, i] = n
        rho11_t[:, i] = rho
        if i == n_steps:
            break
        k = i % _STEP_BLOCK
        if k == 0:
            count = min(_STEP_BLOCK, n_steps - i)
            uniforms = np.empty((count, n_atoms))
            normals = np.empty((count, n_atoms))
            for j, rng in enumerate(rngs):
                uniforms[:, j] = rng.random(count)
                normals[:, j] = rng.standard_normal(count)
            normals *= diff_scale
        p0 = np.exp(rho * -kick_rate)
        for j in (uniforms[k] >= p0).nonzero()[0].tolist():
            n_kicks = _kick_count(uniforms[k, j], kick_rate * rho[j], p0[j])
            for dx, dy, dz in rngs[j].standard_normal((n_kicks, 3)).tolist():
                scale = hk_m / (math.sqrt(dx * dx + dy * dy + dz * dz) or 1.0)
                vq[0, j] += dx * scale
                vy[j] += dy * scale
                vq[1, j] += dz * scale
        vq[0] += normals[k] * g_env / (gk + g_loc2)
        q, vq = q * cw + vq * sw_om, vq * cw - q * om_sw
        y = y + vy * dt
    return [
        _record(times, position[j], n_t[j], rho11_t[j], gam, cavity, sim, rng)
        for j, rng in enumerate(rngs)
    ]


def _blocks(n_atoms: int, most: int) -> list[tuple[int, int]]:
    """Fewest equal contiguous blocks of at most `most` atoms."""
    count = -(-n_atoms // most)
    edges = [k * n_atoms // count for k in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _first_detection(record: TrajectoryRecord, cavity: CavityParams, sim: SimConfig):
    """Earliest qualifying event time, or None.

    Qualifying means the event starts while the atom is within
    PRESENCE_WAISTS waists of the axis along the guide.
    """
    events = detect_events(record.window_times, record.windowed_counts, sim.threshold, sim.min_dip)
    if events.size == 0:
        return None
    y_at = np.interp(events, record.times, record.position[:, 1])
    good = events[np.abs(y_at) <= PRESENCE_WAISTS * cavity.waist]
    return float(good[0]) if good.size else None


def _poisson_split(shape: int, x: float) -> tuple[float, float, float]:
    """P(K < shape), P(K >= shape) and P(K = shape - 1) for K ~ Poisson(x).

    The terms are summed outward from the mode relative to the modal term
    and normalized at the end, so both tails keep full relative precision
    and no factorial or log-gamma is ever formed.  Terms below 1e-20 of
    the modal one are dropped.
    """
    mode = int(x)
    below = above = at = 0.0
    term, k = 1.0, mode
    while term > 1e-20:
        if k < shape:
            below += term
        else:
            above += term
        if k == shape - 1:
            at = term
        k += 1
        term *= x / k
    term, k = 1.0, mode
    while term > 1e-20 and k > 0:
        term *= k / x
        k -= 1
        if k < shape:
            below += term
        else:
            above += term
        if k == shape - 1:
            at = term
    total = below + above
    return below / total, above / total, at / total


def gamma_quantile(shape: int, q: float, upper: bool = False) -> float:
    """Quantile of the unit-scale gamma distribution with integer shape >= 1.

    Returns x with P(shape, x) = q, or with Q(shape, x) = 1 - P(shape, x) = q
    when upper is set, where P is the regularized lower incomplete gamma
    function.  For integer shape, Q(shape, x) is the Poisson(x) probability
    of fewer than shape events, which _poisson_split evaluates.

    Newton's method starts at x = shape.  P is concave beyond its
    inflection point shape - 1, so steps from there toward a root on the
    right move monotonically onto it; a bracket kept from the signs of the
    residual falls back to bisection if a step leaves it.
    """
    if shape < 1:
        raise ValueError("gamma_quantile needs an integer shape >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("gamma_quantile needs 0 < q < 1")
    if shape == 1:
        return -math.log(q) if upper else -math.log1p(-q)
    lo, hi = 0.0, math.inf
    x = float(shape)
    for _ in range(200):
        below, above, density = _poisson_split(shape, x)
        resid = q - below if upper else above - q  # increasing in x
        if resid > 0.0:
            hi = x
        elif resid < 0.0:
            lo = x
        else:
            return x
        step = x - resid / density if density > 0.0 else math.nan
        if abs(step - x) <= 1e-14 * x:
            return step
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        x = step
    return x


_TAIL = 0.025  # each tail of the 95% interval


def garwood_interval(n_events: int, exposure: float) -> tuple[float, float]:
    """Exact (Garwood) 95% confidence interval for a Poisson rate.

    With n_events observed over exposure, the bounds are
    Q(n, 0.025)/exposure and Q(n + 1, 0.975)/exposure, where Q is the unit
    gamma quantile; the lower bound is 0 for n = 0.
    """
    lo = gamma_quantile(n_events, _TAIL) / exposure if n_events else 0.0
    hi = gamma_quantile(n_events + 1, _TAIL, upper=True) / exposure
    return lo, hi


def dark_rates(
    cavity: CavityParams, drive: DriveParams, sim: SimConfig
) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """False-event rate on an atom-free click stream.

    Simulates dark_windows windows of empty-cavity shot noise and counts
    threshold events.  Returns (rate, 95% Poisson CI, rate range across
    dip-persistence conventions of 1 to 5 strides).
    """
    rate0 = _detected_rate(empty_cavity_state(cavity, drive).n_photons, cavity)
    span_total = sim.dark_windows * sim.window
    rng = _dark_rng(sim.seed)
    n_clicks = rng.poisson(rate0 * span_total)
    clicks = np.sort(rng.uniform(0.0, span_total, n_clicks))
    window_times, counts = windowed_counts(clicks, sim.window, sim.stride, duration=span_total)
    span = window_times.size * sim.stride
    n_events = detect_events(window_times, counts, sim.threshold, sim.min_dip).size
    rate = n_events / span
    sweep = [
        detect_events(window_times, counts, sim.threshold, k * sim.stride).size / span
        for k in _DIP_SWEEP
    ]
    return rate, garwood_interval(n_events, span), (min(sweep), max(sweep))


def run_ensemble(
    atom: AtomParams,
    cavity: CavityParams,
    drive: DriveParams,
    guide: GuideParams,
    sim: SimConfig,
    record_sink=None,
) -> DetectionReport:
    """Simulate the ensemble and the dark stream; deterministic given sim.seed.

    Per-trajectory RNG streams are addressed by (seed, index), so the
    report does not depend on how the atoms are split into blocks.  The
    atoms run in process, one simulate_block call per contiguous block of
    at most BLOCK_ATOMS atoms with recoil and BALLISTIC_ATOMS without (see
    _blocks).  record_sink, if given, receives (index, TrajectoryRecord)
    in index order.  StepTooLarge is raised before any atom runs, and
    QuasiStaticViolated, where an atom crosses a standing-wave period in
    under 10 cavity lifetimes, is warned once per call.
    """
    v_char = _check_step(atom, guide, sim)
    if v_char > 0 and (0.5 * atom.wavelength / v_char) < 10.0 / cavity.kappa:
        warnings.warn(
            "atom crosses a standing-wave period in under 10 cavity "
            "lifetimes; the slaved-field approximation is strained",
            QuasiStaticViolated,
            stacklevel=2,
        )
    # the dark stream first: its large arrays are freed before any block is held
    rate, ci, conv = dark_rates(cavity, drive, sim)
    detections = []
    m_values = np.empty(sim.n_atoms)
    most = BLOCK_ATOMS if sim.include_recoil else BALLISTIC_ATOMS
    for start, stop in _blocks(sim.n_atoms, most):
        rngs = [trajectory_rng(sim.seed, i) for i in range(start, stop)]
        records = simulate_block(atom, cavity, drive, guide, sim, rngs)
        for index, record in enumerate(records, start):
            m_values[index] = record.m_scattered
            hit = _first_detection(record, cavity, sim)
            if hit is not None:
                detections.append((index, hit))
            if record_sink is not None:
                record_sink(index, record)
    return DetectionReport(
        efficiency=len(detections) / sim.n_atoms,
        dark_rate=rate,
        dark_rate_ci=ci,
        dark_rate_convention_range=conv,
        mean_m=float(np.mean(m_values)),
        detections=tuple(detections),
        n_atoms=sim.n_atoms,
    )
