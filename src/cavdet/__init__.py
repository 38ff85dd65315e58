"""Single-atom detection in small optical cavities.

Stationary nonlinear atom-cavity solver, resonant and homodyne detection
signal-to-noise with back-action budgets, a Monte Carlo atom-transit
detection experiment, and a fiber-gap cavity design calculator.

``import cavdet`` imports no submodule, so a command loads only what it
runs.  The first read of a public name imports every home module below and
binds all public names at once; an import error, numpy missing for one,
surfaces there.
"""
__version__ = "0.1.0"

# each public name under its home module, the module that defines it
_HOMES = {
    "errors": (
        "CavdetError", "ConfigError", "IllConditionedRootsWarning", "NoMaximumInBounds",
        "NoPhysicalRoot", "NotDispersive", "NotResonant", "ParaxialWarning",
        "QuasiStaticViolated", "SaturationWarning", "SmallDetuningWarning", "StepTooLarge",
    ),
    "params": (
        "KHZ", "MHZ", "NM", "RB_GAMMA", "RB_MASS", "RB_WAVELENGTH", "UM", "US", "AtomParams",
        "CavityParams", "DriveParams", "GuideParams", "SimConfig", "atomic_cross_section",
        "cooperativity", "geometric_cooperativity", "loss_fraction_to_rate",
        "round_trips_and_finesse",
    ),
    "steady_state": (
        "StationaryState", "solve_stationary", "stationary_photon_numbers", "stationary_scan",
    ),
    "resonant_detection": (
        "AsymptoticSnr", "ResonantReport", "classify_coupling", "fluorescence_reference",
        "intensity_report", "m_weak_limit", "max_snr_over_pump", "optimal_kappa_t",
        "saturation_pump", "snr_low_saturation", "snr_resonant", "snr_strong_limit",
        "snr_weak_limit",
    ),
    "homodyne_detection": (
        "HomodyneReport", "dispersive_saturation_pump", "homodyne_report", "m_homodyne",
        "max_snr_hom_over_pump", "n_out_required", "optimal_kappa_t_homodyne",
        "snr_homodyne_strong_limit", "snr_homodyne_weak_limit",
    ),
    "motion": ("MotionAverages", "spatial_averages"),
    "trajectory_sim": (
        "DetectionReport", "TrajectoryRecord", "dark_rates", "detect_events", "local_coupling",
        "run_ensemble", "sample_initial", "simulate_block", "trajectory_rng", "windowed_counts",
    ),
    "fiber_cavity": (
        "FiberCavityDerived", "FiberCavityDesign", "derive", "design_to_cavity", "v_number",
    ),
    "optimize": ("KappaTOptimum", "PumpOptimum", "golden_max"),
    "config": ("RunConfig", "config_digest", "load_config", "parse_config"),
}
__all__ = [name for names in _HOMES.values() for name in names]


def __getattr__(name):
    """Bind every public name on the first read of one; import a home module by its name."""
    from importlib import import_module

    if name in _HOMES:
        return import_module(f".{name}", __name__)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # all at once, so that one read completes the namespace: a tracer that
    # wraps and later restores every binding it finds then finds them all,
    # where a name bound while it is installed would keep its wrapper
    for module, names in _HOMES.items():
        home = import_module(f".{module}", __name__)
        globals().update({n: getattr(home, n) for n in names})
    return globals()[name]
