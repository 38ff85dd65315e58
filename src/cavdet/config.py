"""JSON configuration loading.

Config files quote quantities in the units lab numbers come in (MHz, µs,
µm, µK); conversion to internal units (rad/s, s, m, K) happens here and
nowhere else.  Missing fields fall back to the defaults below; unknown
sections or fields are errors so typos cannot silently revert a value.
Each value must have the JSON type of its default: a boolean for a flag,
an integer (a number with no fractional part) for a count, and any
number but a boolean for a quantity.  The inputs of the stationary solver
must also lie in RANGES, so that its powers of them stay finite.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .params import KHZ, MHZ, NM, UM, US, AtomParams, CavityParams, DriveParams, GuideParams, SimConfig

DEFAULTS: dict = {
    "atom": {
        "gamma_mhz": 3.0,
        "delta_a_over_gamma": 0.0,
        "lambda_nm": 780.0,
        "mass_kg": 1.443e-25,
    },
    "cavity": {
        "g_mhz": 12.0,
        "kappa_t_mhz": 3.0,
        "kappa_loss_mhz": 6.0,
        "delta_c_mhz": 0.0,
        "waist_um": 3.0,
        "length_mm": 10.4,
        "asymmetric_input": False,
    },
    "drive": {"j_in_per_us": 2.0, "tau_us": 10.0},
    "guide": {"trap_omega_khz": 37.0, "mean_velocity_m_s": 0.4, "temperature_uk": 30.0},
    "sim": {
        "dt_us": 0.05,
        "window_us": 8.0,
        "stride_us": 1.0,
        "threshold": 11,
        "min_dip_us": 3.0,
        "duration_us": 100.0,
        "seed": 0,
        "n_atoms": 500,
        "include_recoil": True,
        "dark_windows": 20000,
    },
}

# (lo, hi) per solver input: its magnitude must be 0 or within [lo, hi].  The
# solver works in units of Gamma, and its cubic's discriminant multiplies up
# to a dozen of these rates, their ratios and the pump; inside these ranges
# no such product exceeds about 1e160, and the solver is checked at their
# corners.  Rates run from 1 Hz to 1 THz, the pump from 1e-6 to 1e18 photons/s.
RATE_RANGE_MHZ = (1e-6, 1e6)
PUMP_RANGE_PER_US = (1e-12, 1e12)
RANGES = {
    "atom.gamma_mhz": RATE_RANGE_MHZ,
    "atom.delta_a_over_gamma": RATE_RANGE_MHZ,
    "cavity.g_mhz": RATE_RANGE_MHZ,
    "cavity.kappa_t_mhz": RATE_RANGE_MHZ,
    "cavity.kappa_loss_mhz": RATE_RANGE_MHZ,
    "cavity.delta_c_mhz": RATE_RANGE_MHZ,
    "drive.j_in_per_us": PUMP_RANGE_PER_US,
}


def in_range(value: float, bounds: tuple[float, float]) -> bool:
    """True if value is 0 or its magnitude lies within bounds; False for NaN."""
    lo, hi = bounds
    return value == 0.0 or lo <= abs(value) <= hi


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration plus its canonical-form digest."""

    atom: AtomParams
    cavity: CavityParams
    drive: DriveParams
    guide: GuideParams
    sim: SimConfig
    resolved: dict
    digest: str


def config_digest(resolved: dict) -> str:
    """sha256 of the canonical JSON form of a resolved config dict."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _merge(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for section in raw:
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section '{section}'")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"config section '{section}' must be an object")
        for key, value in raw[section].items():
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown field '{key}' in config section '{section}'")
            _check_type(f"{section}.{key}", DEFAULTS[section][key], value)
    merged = {}
    for section, fields in DEFAULTS.items():
        merged[section] = dict(fields)
        merged[section].update(raw.get(section, {}))
    return merged


def _check_type(name: str, default, value) -> None:
    """Raise ConfigError unless value has the JSON type of its default."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok = number and (isinstance(value, int) or value.is_integer())
        kind = "an integer"
    else:
        # a JSON integer past the float range would overflow in the unit conversion
        ok = number and (isinstance(value, float) or abs(value) <= sys.float_info.max)
        kind = "a number"
    if not ok:
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def parse_config(raw: dict) -> RunConfig:
    """Build parameter objects from a raw config dict (defaults filled in)."""
    r = _merge(raw)
    a, cv, dr, gd, sm = r["atom"], r["cavity"], r["drive"], r["guide"], r["sim"]
    gamma = a["gamma_mhz"] * MHZ
    atom = AtomParams(
        gamma=gamma,
        delta_a=a["delta_a_over_gamma"] * gamma,
        wavelength=a["lambda_nm"] * NM,
        mass=a["mass_kg"],
    )
    cavity = CavityParams(
        g_max=cv["g_mhz"] * MHZ,
        kappa_t=cv["kappa_t_mhz"] * MHZ,
        kappa_loss=cv["kappa_loss_mhz"] * MHZ,
        delta_c=cv["delta_c_mhz"] * MHZ,
        waist=cv["waist_um"] * UM,
        length=cv["length_mm"] * 1e-3,
        asymmetric_input=cv["asymmetric_input"],
    )
    drive = DriveParams(j_in=dr["j_in_per_us"] * 1e6, tau=dr["tau_us"] * US)
    guide = GuideParams(
        trap_omega=gd["trap_omega_khz"] * KHZ,
        mean_velocity=gd["mean_velocity_m_s"],
        temperature=gd["temperature_uk"] * 1e-6,
    )
    sim = SimConfig(
        dt=sm["dt_us"] * US,
        window=sm["window_us"] * US,
        stride=sm["stride_us"] * US,
        threshold=int(sm["threshold"]),
        min_dip=sm["min_dip_us"] * US,
        duration=sm["duration_us"] * US,
        seed=int(sm["seed"]),
        n_atoms=int(sm["n_atoms"]),
        include_recoil=sm["include_recoil"],
        dark_windows=int(sm["dark_windows"]),
    )
    # after the parameter types, which name a value that is not finite
    for name, bounds in RANGES.items():
        section, key = name.split(".")
        if not in_range(r[section][key], bounds):
            raise ConfigError(
                f"{name} must be 0 or between {bounds[0]:g} and {bounds[1]:g} in "
                f"magnitude, got {r[section][key]!r}"
            )
    return RunConfig(
        atom=atom,
        cavity=cavity,
        drive=drive,
        guide=guide,
        sim=sim,
        resolved=r,
        digest=config_digest(r),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a JSON config file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, or not readable
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
