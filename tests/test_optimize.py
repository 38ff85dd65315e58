"""Scalar maximization helpers."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavdet import NoMaximumInBounds
from cavdet.optimize import _POLISH_RTOL, golden_max, max_on_log_grid


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


def test_max_on_log_grid_polishes():
    f = lambda x: -(math.log10(x) - 1.3) ** 2
    x, fx = max_on_log_grid(f, 1.0, 1e3, per_decade=11)
    assert x == pytest.approx(10**1.3, rel=1e-3)
    assert fx <= 0.0
    # monotone edge case lands at the boundary
    x_edge, _ = max_on_log_grid(lambda x: x, 1.0, 100.0, per_decade=11)
    assert x_edge == pytest.approx(100.0, rel=1e-6)


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


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("peak", [1.97, 0.03])
def test_max_on_log_grid_polishes_a_maximum_inside_an_end_interval(peak):
    # 11 points per decade on [1, 100]: the grid's best point is the end
    # nearest the peak, and the peak lies inside that end's grid interval
    f = lambda x: -((math.log10(x) - peak) ** 2)
    grid = np.logspace(0.0, 2.0, 23)
    assert int(np.argmax([f(x) for x in grid])) in (0, len(grid) - 1)
    x, fx = max_on_log_grid(f, 1.0, 100.0, per_decade=11)
    assert x == pytest.approx(10**peak, rel=1e-8)
    assert fx == f(x)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_max_on_log_grid_returns_a_range_end_after_one_probe(sign):
    # a monotone f: the end itself, with one evaluation beyond the grid
    f, calls = _counted(lambda x: sign * x)
    x, fx = max_on_log_grid(f, 1.0, 100.0, per_decade=11)
    end = 100.0 if sign > 0 else 1.0
    assert x == end and fx == sign * end
    assert len(calls) == 23 + 1


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, math.inf), (math.nan, 10.0), (1.0, math.nan), (-math.inf, 10.0), (1e-300, 1e300)],
)
def test_max_on_log_grid_rejects_a_non_finite_range(lo, hi):
    with pytest.raises(NoMaximumInBounds):
        max_on_log_grid(lambda x: x, lo, hi, per_decade=11)


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
    log_lo=st.floats(min_value=-3.0, max_value=9.0),
    decades=st.floats(min_value=1.0, max_value=4.0),
    per_decade=st.integers(min_value=5, max_value=61),
    place=st.sampled_from(["anywhere", "lo end interval", "hi end interval"]),
    where=st.floats(min_value=0.0, max_value=1.0),
    width=st.floats(min_value=0.05, max_value=3.0),
    height=st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)),
    curvature=st.floats(min_value=1e-6, max_value=1e3),
    batched=st.booleans(),
)
# a flat top high above zero, midway between two grid points (244 intervals)
@example("quartic (flat top)", 5.0, 4.0, 61, "anywhere", 90.5 / 244, 0.5, 300.0, 1e-3, True)
# a peak inside the top end interval, where the polish starts one probe inside
@example("asymmetric", 6.0, 4.0, 31, "hi end interval", 0.4, 0.3, 50.0, 0.01, False)
def test_started_polish_finds_a_single_peak(
    shape, log_lo, decades, per_decade, place, where, width, height, curvature, batched
):
    # the polish starts at the best grid point: it still ends within its
    # tolerance of the peak, or where f is flat to rounding, and no point
    # of a dense grid is better by more than f falls within that tolerance
    # and rounding
    lo, hi = 10.0**log_lo, 10.0 ** (log_lo + decades)
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / max(1, round(per_decade * decades))
    peak = {
        "anywhere": a + where * (b - a),
        "lo end interval": a + where * step,
        "hi end interval": b - where * step,
    }[place]
    bump, flat = PEAKS[shape]
    f_array = lambda x: height - curvature * bump((np.log(x) - peak) / width)
    f = lambda x: float(f_array(np.float64(x)))
    x, fx = max_on_log_grid(f, lo, hi, per_decade, f_grid=f_array if batched else None)
    assert fx == f(x)
    bracket = _POLISH_RTOL * 2.0 * (abs(peak) + 2.0 * step)
    assert abs(math.log(x) - peak) <= bracket + width * flat(ROUNDING * abs(height) / curvature)
    fall = curvature * max(bump(bracket / width), bump(-bracket / width))
    dense = np.logspace(math.log10(lo), math.log10(hi), 20001)
    assert fx >= f_array(dense).max() - fall - ROUNDING * (abs(height) + curvature)
