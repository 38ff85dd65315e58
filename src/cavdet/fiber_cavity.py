"""Design calculator for fiber-gap microcavities.

Two identical single-mode fibers face each other across a vacuum gap of
width 2d; each carries a highly reflective mirror a distance L behind its
end face, so the cavity field lives mostly in the fiber cores and crosses
the gap as a diverging Gaussian beam.  The fiber mode is approximated by a
Gaussian of waist w0 (Marcuse fit to the LP01 mode); the mismatch between
the diverged gap beam and the fiber mode on the far side sets the
dominant loss rate kappa_gap, while the phase budget of one round trip
fixes the resonant gap sizes.

All formulas are perturbative in d/z0 (gap small against the Rayleigh
range) and warn beyond d/z0 = 0.3.  derive is the one derivation of a
design: it computes the mode, the gap and every rate once, and
design_to_cavity turns the result into the detection model's CavityParams.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import ConfigError, ParaxialWarning
from .params import C_LIGHT, AtomParams, CavityParams, require_finite


@dataclass(frozen=True)
class FiberCavityDesign:
    """Geometry and material inputs.

    n_core stands in for the effective index k1/k0 of the guided mode,
    which matches the worked numbers this model was checked against.
    half_gap is d, half the mirror-to-mirror vacuum gap.
    """

    fiber_length: float
    half_gap: float = 0.0
    core_radius: float = 2.5e-6
    n_core: float = 1.5
    n_clad: float = 1.496
    wavelength0: float = 780e-9
    mirror_transmission: float = 0.01

    def __post_init__(self):
        require_finite(self, "design")
        if not self.n_core > self.n_clad > 1.0:
            raise ConfigError("need n_core > n_clad > 1")
        if not 0.0 < self.mirror_transmission < 1.0:
            raise ConfigError("mirror transmission must be in (0, 1)")
        if self.half_gap < 0:
            raise ConfigError("half_gap must be non-negative")
        if self.fiber_length <= 0 or self.core_radius <= 0 or self.wavelength0 <= 0:
            raise ConfigError("lengths must be positive")
        try:
            v = v_number(self)
        except OverflowError as exc:  # n_core**2 past the float range
            raise ConfigError(f"{self} is outside the fiber-gap model's float range") from exc
        if v > 3.0:
            warnings.warn(
                f"V number {v:.2f} > 3; the fiber is not single-mode and the "
                "Gaussian fit is unreliable",
                ParaxialWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class FiberCavityDerived:
    """Everything the design implies for the detection model."""

    waist: float
    rayleigh: float
    q_modulus: float
    q_phase: float
    kappa_gap: float
    kappa_t: float
    g_max: float
    gap_amplitude_ratio: float
    mode_index: int
    half_gap: float


def v_number(design: FiberCavityDesign) -> float:
    """Normalized frequency V = (2*pi*a/lambda0)*sqrt(n_core^2 - n_clad^2)."""
    return (
        2.0
        * math.pi
        * design.core_radius
        / design.wavelength0
        * math.sqrt(design.n_core**2 - design.n_clad**2)
    )


def derive(
    design: FiberCavityDesign, atom: AtomParams, mode_index: int | None = None
) -> FiberCavityDerived:
    """Everything a design implies, each quantity computed once.

    The fiber mode is a Gaussian of Marcuse waist
    w0 = a*(0.65 + 1.619*V^-1.5 + 2.879*V^-6) and Rayleigh range
    z0 = pi*w0^2/lambda0; k0 = 2*pi/lambda0, k1 = n*k0 with n = n_core.  The
    fiber's round-trip phase is 2*arctan(tan(k1*L)/n), and its end face
    carries the mirror factor F = (1+n) - (1-n)*exp(-2i*k1*L).

    With mode_index m given, the resonant half gap
    d = (m*pi - phase)/(2*k0 - 1/z0) replaces design.half_gap; otherwise
    design.half_gap is used and the nearest mode index is reported.  The
    gap beam's overlap Q with the far fiber mode has |Q| = w0/w(d), second
    order in d/z0, and arg Q = 2*k0*d - arctan(d/z0), the Gouy deficit.
    2*kappa_gap = (c/2L)*(d/z0)^2*|F/(2n)|^2 warns past d/z0 = 0.3;
    kappa_t = T*c/(4*n*L); g = |F|*sqrt(3*Gamma*c/(2*n^2*L*w0^2*k0^2)) is
    largest with a field node at the end face, where the gap-to-fiber
    amplitude ratio |F|/2 reaches n (it lies between 1 and n).

    Derived quantities that overflow, leave a math function's domain,
    divide by zero or are not finite raise ConfigError naming the design
    and the atom.
    """
    n = design.n_core
    length = design.fiber_length
    try:
        v = v_number(design)
        w0 = design.core_radius * (0.65 + 1.619 * v**-1.5 + 2.879 * v**-6)
        z0 = math.pi * w0**2 / design.wavelength0
        k0 = 2.0 * math.pi / design.wavelength0
        k1 = n * 2.0 * math.pi / design.wavelength0
        x = k1 * length
        phase = 2.0 * math.atan2(math.sin(x), n * math.cos(x))
        slope = 2.0 * k0 - 1.0 / z0  # round-trip gap phase per unit half gap
        if mode_index is not None:
            d = (mode_index * math.pi - phase) / slope
            if not d >= 0.0:
                raise ConfigError(f"mode index {mode_index} has no non-negative gap")
            m = mode_index
        else:
            d = design.half_gap
            m = int(round((d * slope + phase) / math.pi))
        dz = d / z0
        w = w0 * math.sqrt(1.0 + dz**2)
        if dz > 0.3:
            warnings.warn(
                f"d/z0 = {dz:.2f}; the perturbative gap-loss formula is "
                "outside its comfort zone",
                ParaxialWarning,
                stacklevel=2,
            )
        mirror = (1.0 + n) - (1.0 - n) * cmath.exp(-2.0j * k1 * length)
        derived = FiberCavityDerived(
            waist=w0,
            rayleigh=z0,
            q_modulus=w0 / w,
            q_phase=2.0 * k0 * d - math.atan2(d, z0),
            kappa_gap=C_LIGHT / (4.0 * length) * dz**2 * abs(mirror / (2.0 * n)) ** 2,
            kappa_t=design.mirror_transmission * C_LIGHT / (4.0 * n * length),
            g_max=abs(mirror)
            * math.sqrt(3.0 * atom.gamma * C_LIGHT / (2.0 * n**2 * length * w0**2 * k0**2)),
            gap_amplitude_ratio=abs(mirror) / 2.0,
            mode_index=m,
            half_gap=d,
        )
    # ValueError: math domain error, e.g. sin(inf); ZeroDivisionError: V or a length underflows to 0
    except (OverflowError, ValueError, ZeroDivisionError):
        derived = None
    if derived is None or not all(map(math.isfinite, vars(derived).values())):
        raise ConfigError(f"{design} with {atom} is outside the fiber-gap model's float range")
    return derived


def design_to_cavity(
    derived: FiberCavityDerived, fiber_length: float, extra_loss: float
) -> CavityParams:
    """The detection-model cavity of a derived design, pumped on resonance.

    This is the one place a design becomes CavityParams.  fiber_length is
    the design's; extra_loss adds material or scattering losses on top of
    kappa_gap.
    """
    return CavityParams(
        g_max=derived.g_max,
        kappa_t=derived.kappa_t,
        kappa_loss=derived.kappa_gap + extra_loss,
        waist=derived.waist,
        length=fiber_length,
    )
