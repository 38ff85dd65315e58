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
range); kappa_gap warns beyond d/z0 = 0.3.
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

    n_eff is the effective index k1/k0 of the guided mode; None falls back
    to n_core, which matches the worked numbers this model was checked
    against.  half_gap is d, half the mirror-to-mirror vacuum gap.
    """

    fiber_length: float
    half_gap: float = 0.0
    core_radius: float = 2.5e-6
    n_core: float = 1.5
    n_clad: float = 1.496
    wavelength0: float = 780e-9
    mirror_transmission: float = 0.01
    n_eff: float | None = None

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
        v = v_number(self)
        if v > 3.0:
            warnings.warn(
                f"V number {v:.2f} > 3; the fiber is not single-mode and the "
                "Gaussian fit is unreliable",
                ParaxialWarning,
                stacklevel=3,
            )

    @property
    def index(self) -> float:
        return self.n_core if self.n_eff is None else self.n_eff


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


def mode_waist(design: FiberCavityDesign) -> float:
    """Marcuse waist w0 = a*(0.65 + 1.619*V^-1.5 + 2.879*V^-6) of the fiber mode.

    Past V = 3 the fit is unreliable; the design warns once, when it is built.
    """
    v = v_number(design)
    return design.core_radius * (0.65 + 1.619 * v**-1.5 + 2.879 * v**-6)


def gaussian_beam_params(w0: float, wavelength: float, z: float):
    """Free-space Gaussian beam quantities (w(z), curvature 1/R(z), gouy(z), z0).

    The curvature is returned instead of R so the flat wavefront at z=0 is
    an ordinary zero.
    """
    z0 = math.pi * w0**2 / wavelength
    w = w0 * math.sqrt(1.0 + (z / z0) ** 2)
    curvature = z / (z * z + z0 * z0)
    gouy = math.atan2(z, z0)
    return w, curvature, gouy, z0


def _fiber_phase(design: FiberCavityDesign) -> float:
    """Round-trip fiber reflection phase 2*arctan(tan(k1*L)/n), continuous form."""
    k1 = design.index * 2.0 * math.pi / design.wavelength0
    x = k1 * design.fiber_length
    return 2.0 * math.atan2(math.sin(x), design.index * math.cos(x))


def resonant_gaps(design: FiberCavityDesign, m_range) -> list[tuple[int, float]]:
    """Gap sizes 2d resonant at the design wavelength, one per mode index.

    Solves d*(2*k0 - 1/z0) = m*pi - 2*arctan(tan(k1*L)/n) for each integer
    m in m_range; only non-negative gaps are returned.
    """
    k0 = 2.0 * math.pi / design.wavelength0
    _, _, _, z0 = gaussian_beam_params(mode_waist(design), design.wavelength0, 0.0)
    phase = _fiber_phase(design)
    out = []
    for m in m_range:
        d = (m * math.pi - phase) / (2.0 * k0 - 1.0 / z0)
        if d >= 0.0:
            out.append((int(m), 2.0 * d))
    return out


def mode_match(design: FiberCavityDesign, half_gap: float | None = None) -> tuple[float, float]:
    """Overlap Q of the diverged gap beam with the far fiber mode: (|Q|, arg Q).

    |Q| = w0/w(d) drops only second order in d/z0; the phase
    arg Q = 2*k0*d - arctan(d/z0) carries the first-order Gouy deficit that
    shifts the resonance condition.
    """
    d = design.half_gap if half_gap is None else half_gap
    w0 = mode_waist(design)
    w, _, gouy, _ = gaussian_beam_params(w0, design.wavelength0, d)
    k0 = 2.0 * math.pi / design.wavelength0
    return w0 / w, 2.0 * k0 * d - gouy


def _mirror_factor(design: FiberCavityDesign) -> complex:
    """Field enhancement factor (1+n) - (1-n)*exp(-2i*k1*L) at the fiber end."""
    n = design.index
    k1 = n * 2.0 * math.pi / design.wavelength0
    return (1.0 + n) - (1.0 - n) * cmath.exp(-2.0j * k1 * design.fiber_length)


def kappa_gap(design: FiberCavityDesign, half_gap: float | None = None) -> float:
    """Field decay rate from gap mode mismatch (rad/s).

    2*kappa_gap = (c/2L)*(d/z0)^2*|factor/(2n)|^2 with the mirror factor
    above; quadratic in the gap, hence the warning when d/z0 is no longer
    small.
    """
    d = design.half_gap if half_gap is None else half_gap
    _, _, _, z0 = gaussian_beam_params(mode_waist(design), design.wavelength0, 0.0)
    if d / z0 > 0.3:
        warnings.warn(
            f"d/z0 = {d / z0:.2f}; the perturbative gap-loss formula is "
            "outside its comfort zone",
            ParaxialWarning,
            stacklevel=2,
        )
    factor = abs(_mirror_factor(design) / (2.0 * design.index)) ** 2
    return C_LIGHT / (4.0 * design.fiber_length) * (d / z0) ** 2 * factor


def coupling_g(design: FiberCavityDesign, atom: AtomParams) -> float:
    """Peak single-photon Rabi frequency of the assembled cavity (rad/s).

    g = |factor| * sqrt(3*Gamma*c/(2*n^2*L*w0^2*k0^2)); largest when the
    fiber length puts a field node at the end face (antinode in the gap).
    """
    n = design.index
    w0 = mode_waist(design)
    k0 = 2.0 * math.pi / design.wavelength0
    return abs(_mirror_factor(design)) * math.sqrt(
        3.0 * atom.gamma * C_LIGHT / (2.0 * n**2 * design.fiber_length * w0**2 * k0**2)
    )


def kappa_t_mirror(design: FiberCavityDesign) -> float:
    """Output-mirror decay rate kappa_t = T*c/(4*n*L) (rad/s)."""
    return design.mirror_transmission * C_LIGHT / (4.0 * design.index * design.fiber_length)


def gap_amplitude_ratio(design: FiberCavityDesign) -> float:
    """Gap-to-fiber field amplitude ratio |factor|/2, between 1 and n."""
    return abs(_mirror_factor(design)) / 2.0


def nearest_mode_index(design: FiberCavityDesign, half_gap: float | None = None) -> int:
    """Mode index m whose resonant gap is closest to the given half gap."""
    d = design.half_gap if half_gap is None else half_gap
    k0 = 2.0 * math.pi / design.wavelength0
    _, _, _, z0 = gaussian_beam_params(mode_waist(design), design.wavelength0, 0.0)
    return int(round((d * (2.0 * k0 - 1.0 / z0) + _fiber_phase(design)) / math.pi))


def derive(
    design: FiberCavityDesign, atom: AtomParams, mode_index: int | None = None
) -> FiberCavityDerived:
    """All derived quantities at once, resolving the gap from a mode index.

    With mode_index given, the resonant gap for that index replaces
    design.half_gap; otherwise design.half_gap is used as-is and the
    nearest mode index is reported.
    """
    if mode_index is not None:
        gaps = resonant_gaps(design, [mode_index])
        if not gaps:
            raise ConfigError(f"mode index {mode_index} has no non-negative gap")
        d = gaps[0][1] / 2.0
        m = mode_index
    else:
        d = design.half_gap
        m = nearest_mode_index(design)
    w0 = mode_waist(design)
    _, _, _, z0 = gaussian_beam_params(w0, design.wavelength0, 0.0)
    q_mod, q_phase = mode_match(design, d)
    return FiberCavityDerived(
        waist=w0,
        rayleigh=z0,
        q_modulus=q_mod,
        q_phase=q_phase,
        kappa_gap=kappa_gap(design, d),
        kappa_t=kappa_t_mirror(design),
        g_max=coupling_g(design, atom),
        gap_amplitude_ratio=gap_amplitude_ratio(design),
        mode_index=m,
        half_gap=d,
    )


def design_to_cavity(
    design: FiberCavityDesign, atom: AtomParams, extra_loss: float = 0.0
) -> CavityParams:
    """Bridge the design into detection-model cavity parameters.

    The half gap must already be resonant (pick one via resonant_gaps).
    extra_loss adds material or scattering losses on top of kappa_gap.
    """
    return CavityParams(
        g_max=coupling_g(design, atom),
        kappa_t=kappa_t_mirror(design),
        kappa_loss=kappa_gap(design) + extra_loss,
        delta_c=0.0,
        waist=mode_waist(design),
        length=design.fiber_length,
    )
