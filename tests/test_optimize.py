"""Scalar maximization helpers, and best_pump's scan and polish on synthetic S(N)."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavdet import MHZ, US, AtomParams, CavityParams, NoMaximumInBounds, optimize
from cavdet.optimize import _POLISH_RTOL, golden_max


def test_golden_max_quadratic():
    x, fx = golden_max(lambda x: -(x - 1.7) ** 2 + 4.0, 0.0, 5.0, rel_tol=1e-9)
    assert x == pytest.approx(1.7, rel=1e-6)
    assert fx == pytest.approx(4.0, abs=1e-12)


def test_golden_max_log_scale_function():
    x, fx = golden_max(lambda x: -(math.log(x) - 2.0) ** 2, 0.1, 1e4, rel_tol=1e-6)
    assert x == pytest.approx(math.e**2, rel=1e-4)


def test_golden_max_rejects_bad_bracket():
    with pytest.raises(NoMaximumInBounds):
        golden_max(lambda x: x, 2.0, 1.0, rel_tol=1e-6)
    with pytest.raises(NoMaximumInBounds):
        golden_max(lambda x: float("nan"), 0.0, 1.0, rel_tol=1e-6)


def test_golden_max_quadratic_in_few_evaluations():
    # golden section alone needs about 50 evaluations for this bracket
    calls = []

    def f(x):
        calls.append(x)
        return -(x - 1.7) ** 2 + 4.0

    x, fx = golden_max(f, 0.0, 5.0, rel_tol=1e-10)
    assert x == pytest.approx(1.7, abs=1e-8)
    assert fx == 4.0
    assert len(calls) <= 20


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_golden_max_returns_a_maximum_at_either_end(sign, rel_tol):
    lo, hi = 2.0, 7.0
    x, fx = golden_max(lambda x: sign * x, lo, hi, rel_tol=rel_tol)
    end = hi if sign > 0 else lo
    assert abs(x - end) <= rel_tol * (abs(lo) + abs(hi))
    assert fx == sign * x


def test_golden_max_treats_nan_as_worst():
    # NaN on the left part of the bracket: the maximum on the right is found
    f = lambda x: float("nan") if x < 0.5 else -((x - 0.8) ** 2)
    x, fx = golden_max(f, 0.0, 1.0, rel_tol=1e-10)
    assert x == pytest.approx(0.8, abs=1e-7)
    with pytest.raises(NoMaximumInBounds):
        golden_max(lambda x: float("nan"), 0.0, 1.0, rel_tol=1e-10)


# best_pump on a synthetic S(N) over a cavity without folds, as a function
# of t = ln(N/N_lo) on its grid
ATOM = AtomParams()
MAIN = CavityParams(g_max=12 * MHZ, kappa_t=3 * MHZ, kappa_loss=6 * MHZ)
N_LO = optimize._N_LOW * ATOM.gamma**2 / (2.0 * MAIN.g_max**2)
SPAN = optimize._N_DECADES * math.log(10.0)
STEP = SPAN / (optimize._N_DECADES * optimize._PER_DECADE)


def _best_pump_on(f):
    """best_pump's (t, S) for S = f(t); t is where its returned S was scored."""
    scored = {}

    def snr(atom, cavity, n, tau):
        t = np.log(n / N_LO)
        value = f(t)
        if not isinstance(n, np.ndarray):
            scored[float(value)] = t
        return value

    _, s = optimize.best_pump(snr, ATOM, MAIN, 10 * US)
    return scored[s], s


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_best_pump_names_a_range_end(sign):
    # a monotone S: the optimum is an end of the photon-number range, and
    # the error names that end instead of returning it
    end = "high" if sign > 0 else "low"
    with pytest.raises(NoMaximumInBounds, match=f"towards the {end} end of the photon-number"):
        _best_pump_on(lambda t: sign * t)


def test_max_on_log_grid_polishes():
    # best_pump's log-N scan is polished far below its step: a peak 8.33
    # decades above N_lo, 0.4 scan steps from the nearest scan point
    peak = 8.33 * math.log(10.0)
    f = lambda t: -((t - peak) ** 2)
    x, fx = _best_pump_on(f)
    assert abs(x - peak) <= _POLISH_RTOL * 2.0 * (peak + 2.0 * STEP)
    assert fx <= 0.0 and fx == f(x)
    # a monotone S names the end it rises towards instead of returning it
    with pytest.raises(NoMaximumInBounds):
        _best_pump_on(lambda t: t)


@pytest.mark.parametrize("peak", [1.97, 0.03])
def test_max_on_log_grid_polishes_a_maximum_inside_an_end_interval(peak):
    # a peak 0.03 scan steps inside the low end of the N range (0.03) or
    # inside its high end (1.97 = 2 - 0.03): the scan's best point is that
    # end, and the peak lies inside the end's scan step
    offset = min(peak, 2.0 - peak) * STEP
    t_peak = offset if peak < 1.0 else SPAN - offset
    f = lambda t: -((t - t_peak) ** 2)
    grid = np.linspace(0.0, SPAN, optimize._N_DECADES * optimize._PER_DECADE + 1)
    assert int(np.argmax(f(grid))) in (0, grid.size - 1)
    x, fx = _best_pump_on(f)
    assert abs(x - t_peak) <= _POLISH_RTOL * 2.0 * (t_peak + 2.0 * STEP)
    assert fx == f(x)


# rounding: where a few evaluations of f agree to this many ulps of the
# peak's value, Brent's method cannot tell them apart
ROUNDING = 64 * np.finfo(float).eps
# single peaks in t = (log x - peak)/width, each minimal (0) at t = 0, and
# a half-width in t within which shape(t) <= r: for r = ROUNDING*|h|/c,
# h - c*shape(t) is within ROUNDING*|h| of h there
PEAKS = {
    "quadratic": (lambda t: t * t, lambda r: math.sqrt(r)),
    "quartic (flat top)": (lambda t: t**4, lambda r: 1.2 * r**0.25),
    "asymmetric": (lambda t: np.expm1(t) - t, lambda r: 1.2 * math.sqrt(2.0 * r)),
    "heavy tails": (lambda t: np.log1p(t * t), lambda r: 1.2 * math.sqrt(r)),
}


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(PEAKS)),
    where=st.floats(min_value=0.0, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=3.0),
    height=st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)),
    curvature=st.floats(min_value=1e-6, max_value=1e3),
)
# a flat top high above zero, midway between two grid points
@example("quartic (flat top)", 159.5 / 318, 0.5, 300.0, 1e-3)
# a peak at the last grid point inside the range
@example("asymmetric", 1.0, 0.3, 50.0, 0.01)
def test_started_polish_finds_a_single_peak(shape, where, width, height, curvature):
    # best_pump's polish starts at the best point of its N grid: it still
    # ends within its tolerance of the peak, or where S is flat to rounding,
    # and no point of a dense grid is better by more than S falls within
    # that tolerance and rounding
    peak = STEP + where * (SPAN - 2.0 * STEP)
    bump, flat = PEAKS[shape]
    f = lambda t: height - curvature * bump((t - peak) / width)
    x, fx = _best_pump_on(f)
    assert fx == f(x)
    bracket = _POLISH_RTOL * 2.0 * (abs(peak) + 2.0 * STEP)
    assert abs(x - peak) <= bracket + width * flat(ROUNDING * abs(height) / curvature)
    fall = curvature * max(bump(bracket / width), bump(-bracket / width))
    dense = np.linspace(0.0, SPAN, 20001)
    assert fx >= f(dense).max() - fall - ROUNDING * (abs(height) + curvature)
