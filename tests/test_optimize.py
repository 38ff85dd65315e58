"""Scalar maximization helpers."""
import math

import numpy as np
import pytest

from cavdet import NoMaximumInBounds
from cavdet.optimize import golden_max, max_on_log_grid


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
