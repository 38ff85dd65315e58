"""Physical parameter types, unit conventions, and derived geometric quantities.

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

    The pump amplitude eta = sqrt(j_in * kappa_t) is always derived, never
    stored.
    """

    j_in: float
    tau: float

    def __post_init__(self):
        require_finite(self, "drive")
        if self.j_in < 0:
            raise ConfigError("drive.j_in must be non-negative")
        if self.tau <= 0:
            raise ConfigError("drive.tau must be positive")


def pump_amplitude(drive: DriveParams, cavity: CavityParams) -> float:
    """Pump rate eta = sqrt(j_in * kappa_t), in rad/s * photons^(1/2)."""
    return math.sqrt(drive.j_in * cavity.kappa_t)


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
