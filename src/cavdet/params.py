"""Physical parameter types, unit conventions, and derived geometric quantities.

The guide and ensemble settings of a transit run live here too, with the
size caps they are checked against, so a config loads without numpy.

Every frequency-like quantity is stored in angular units (rad/s).  Config
files and most lab numbers quote ordinary frequencies in MHz; the MHZ
constant (2*pi*1e6) converts them exactly once, at the boundary.  Gamma is
the atomic half-linewidth: the excited state decays at 2*Gamma.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ConfigError, ParaxialWarning

# unit multipliers: value_in_unit * MULTIPLIER -> internal units
MHZ = 2.0 * math.pi * 1e6  # rad/s per MHz of ordinary frequency
KHZ = 2.0 * math.pi * 1e3
US = 1e-6  # s
UM = 1e-6  # m
NM = 1e-9  # m

# exact SI defining constants (2019 SI); HBAR is h/(2*pi) rounded once
C_LIGHT = 299792458.0  # m/s
HBAR = 1.0545718176461565e-34  # J s
K_B = 1.380649e-23  # J/K

# 87Rb D2 defaults, used when a config omits atom constants
RB_WAVELENGTH = 780.0 * NM
RB_GAMMA = 3.0 * MHZ
RB_MASS = 1.443e-25  # kg


def require_finite(params, section: str) -> None:
    """Raise ConfigError if any float field of a parameter dataclass is NaN or inf.

    Comparisons against NaN are all false, so the range checks that follow
    would let it through and it would surface much later as a solver failure.
    """
    for name, value in vars(params).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class AtomParams:
    """Two-level atom constants; delta_a is the pump-minus-atom detuning."""

    gamma: float = RB_GAMMA
    delta_a: float = 0.0
    wavelength: float = RB_WAVELENGTH
    mass: float = RB_MASS

    def __post_init__(self):
        require_finite(self, "atom")
        if self.gamma <= 0:
            raise ConfigError("atom.gamma must be positive")
        if self.wavelength <= 0:
            raise ConfigError("atom.wavelength must be positive")
        if self.mass <= 0:
            raise ConfigError("atom.mass must be positive")

    @property
    def k(self) -> float:
        """Optical wave number 2*pi/wavelength (1/m)."""
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class CavityParams:
    """Cavity rates and geometry.

    g_max is the single-photon Rabi frequency at a field antinode on axis.
    kappa_t decays through the output mirror, kappa_loss through everything
    else; the total field decay rate is their sum.  kappa_loss defaults to 0,
    a lossless cavity, not to the config's 6 MHz.  delta_c is the
    pump-minus-cavity detuning.  asymmetric_input doubles the detected
    output (all useful light leaves through the one transmissive mirror).
    """

    g_max: float
    kappa_t: float
    kappa_loss: float = 0.0
    delta_c: float = 0.0
    waist: float = 3.0 * UM
    length: float = 10.4 * 1e-3  # the config's own expression
    asymmetric_input: bool = False

    def __post_init__(self):
        require_finite(self, "cavity")
        if self.g_max < 0:
            raise ConfigError("cavity.g_max must be non-negative")
        if self.kappa_t <= 0:
            raise ConfigError("cavity.kappa_t must be positive")
        if self.kappa_loss < 0:
            raise ConfigError("cavity.kappa_loss must be non-negative")
        if self.waist <= 0:
            raise ConfigError("cavity.waist must be positive")
        if self.length <= 0:
            raise ConfigError("cavity.length must be positive")

    @property
    def kappa(self) -> float:
        """Total field decay rate kappa_t + kappa_loss (rad/s)."""
        return self.kappa_t + self.kappa_loss


@dataclass(frozen=True)
class DriveParams:
    """Pump photon flux j_in (photons/s) and integration time tau (s).

    Only eta^2 = j_in * kappa_t enters, never the pump amplitude eta: the
    solver takes it (steady_state._scaled), and so does the empty cavity's
    photon number (resonant_detection._empty_photons).
    """

    j_in: float
    tau: float

    def __post_init__(self):
        require_finite(self, "drive")
        if self.j_in < 0:
            raise ConfigError("drive.j_in must be non-negative")
        if self.tau <= 0:
            raise ConfigError("drive.tau must be positive")


# most atoms stepped together with recoil: position, N and rho11 cost 40 B
# per atom-step, so 2,001 steps x 512 atoms hold about 41 MB
BLOCK_ATOMS = 512
# most atoms in one ensemble: a transit takes about 1 ms, so 10**7 atoms run
# for hours, and their per-atom M values (80 MB) still fit in memory
_MAX_ATOMS = 10**7
# most steps per transit, duration/dt: at 40 B per atom-step one atom holds
# 4 MB and a full recoil block of BLOCK_ATOMS about 2 GB; the shipped
# configs take 2,000
_MAX_STEPS = 10**5
# most window counts held at once: 24 B each at the measured peak (a start
# and a count in the dark stream; two edge positions and a count per atom
# in a block's records), so 2.4 GB.  A block holds BLOCK_ATOMS transits'
# windows, so one transit may have _MAX_WINDOWS // BLOCK_ATOMS = 195,312.
# The shipped configs take 93 per transit and 160,000 in the dark stream
_MAX_WINDOWS = 10**8
_MAX_TRANSIT_WINDOWS = _MAX_WINDOWS // BLOCK_ATOMS


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
        if self.duration / self.dt > _MAX_STEPS:
            raise ConfigError(
                f"sim.duration/sim.dt must be at most {_MAX_STEPS} steps, "
                f"got {self.duration / self.dt:.6g}"
            )
        if self.seed < 0:
            raise ConfigError("sim.seed must be non-negative")
        if self.n_atoms < 1:
            raise ConfigError("sim.n_atoms must be at least 1")
        if self.n_atoms > _MAX_ATOMS:
            raise ConfigError(f"sim.n_atoms must be at most {_MAX_ATOMS}, got {self.n_atoms}")
        if self.dark_windows < 1:
            raise ConfigError("sim.dark_windows must be at least 1")
        stride = f"sim.stride_us={self.stride / US:.6g}"
        per_transit = _window_count(self.window, self.stride, self.duration)
        if per_transit > _MAX_TRANSIT_WINDOWS:
            raise ConfigError(
                f"{stride} makes {per_transit:.6g} windows per transit; "
                f"at most {_MAX_TRANSIT_WINDOWS} are counted"
            )
        dark = _window_count(self.window, self.stride, self.dark_windows * self.window)
        if dark > _MAX_WINDOWS:
            raise ConfigError(
                f"sim.dark_windows={self.dark_windows} at {stride} makes {dark:.6g} "
                f"dark-stream windows; at most {_MAX_WINDOWS} are counted"
            )


def _window_count(window: float, stride: float, duration: float) -> int | float:
    """Number of sliding windows [t, t + window), stride apart from 0 to duration - window.

    inf where the count leaves the float range.
    """
    last = (duration - window) / stride + 1e-9
    return math.floor(last) + 1 if math.isfinite(last) else math.inf


def cooperativity(atom: AtomParams, cavity: CavityParams) -> float:
    """C = g^2 / (kappa * Gamma), atom-induced vs bare cavity damping."""
    return cavity.g_max**2 / (cavity.kappa * atom.gamma)


def atomic_cross_section(wavelength: float) -> float:
    """Resonant scattering cross section 3*lambda^2/(2*pi) (m^2)."""
    return 3.0 * wavelength**2 / (2.0 * math.pi)


def geometric_cooperativity(wavelength: float, waist_area: float, n_rt: float) -> float:
    """Scaling estimate 2*(sigma_a/A)*n_rt of the cooperativity.

    Diagnostic only; the solver paths always use g, kappa, Gamma directly.
    """
    sigma_a = atomic_cross_section(wavelength)
    if waist_area < 5.0 * sigma_a:
        warnings.warn(
            "mode area below 5 atomic cross sections; the scaling estimate "
            "is not reliable this tightly focused",
            ParaxialWarning,
            stacklevel=2,
        )
    return 2.0 * (sigma_a / waist_area) * n_rt


def round_trips_and_finesse(cavity: CavityParams) -> tuple[float, float]:
    """Mean photon round trips n_rt = c/(4*L*kappa) and finesse 4*pi*n_rt."""
    n_rt = C_LIGHT / (4.0 * cavity.length * cavity.kappa)
    return n_rt, 4.0 * math.pi * n_rt


def loss_fraction_to_rate(p: float, length: float, n_eff: float) -> float:
    """Decay rate equivalent to a per-round-trip loss fraction p.

    kappa_add = p*c/(4*n_eff*length), the inverse of the round-trip relation
    with the optical path n_eff*length.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("loss fraction must satisfy 0 <= p < 1")
    if length <= 0 or n_eff <= 0:
        raise ValueError("length and n_eff must be positive")
    return p * C_LIGHT / (4.0 * n_eff * length)
