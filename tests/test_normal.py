"""Accuracy tests for the standard normal CDF behind the KS checks."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, strategies as st

import empcalc as ec


def test_cdf_absolute_error_bound():
    # 0.5 erfc(-x / sqrt(2)) is exact up to rounding, not an approximation: it agrees
    # with scipy to 2.2e-16 here; 7.5e-8 is the looser bound the KS checks need
    x = np.linspace(-8.5, 8.5, 200_001)
    err = np.abs(ec.standard_normal_cdf(x) - sps.norm.cdf(x))
    assert float(err.max()) <= 7.5e-8


def test_cdf_key_points():
    assert ec.standard_normal_cdf(0.0) == pytest.approx(0.5, abs=7.5e-8)
    assert ec.standard_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=7.5e-8)
    assert ec.standard_normal_cdf(-1.959963984540054) == pytest.approx(0.025, abs=7.5e-8)
    assert ec.standard_normal_cdf(8.0) == pytest.approx(1.0, abs=1e-12)
    assert ec.standard_normal_cdf(-8.0) == pytest.approx(0.0, abs=1e-12)


def test_cdf_is_monotone():
    x = np.linspace(-9.0, 9.0, 10_001)
    vals = ec.standard_normal_cdf(x)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cdf_lower_tail_relative_error():
    # Each side rounds the erfc argument t = -x / sqrt(2) to a relative error d <= eps
    # (the constant and one operation, eps / 2 each).  erfc(t) > 2 exp(-t^2) / (sqrt(pi)
    # (t + sqrt(t^2 + 2))) gives |d ln erfc(t) / d ln t| < 2 t^2 + 1 = x^2 + 1, so each
    # side is off by at most (x^2 + 1) eps, plus an ulp or two of erfc itself: against
    # scipy, (2 x^2 + 6) eps.  At x = -37, Phi(x) = 5.7e-300 is still a normal float.
    eps = np.finfo(float).eps
    x = np.linspace(-37.0, 0.0, 200_001)
    want = sps.norm.cdf(x)
    assert want.min() > np.finfo(float).tiny
    rel = np.abs(ec.standard_normal_cdf(x) - want) / want
    worst = int(np.argmax(rel / (2.0 * x * x + 6.0)))
    assert rel[worst] <= (2.0 * x[worst] ** 2 + 6.0) * eps, (x[worst], rel[worst])


@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_cdf_symmetry(x):
    lhs = ec.standard_normal_cdf(x) + ec.standard_normal_cdf(-x)
    assert lhs == pytest.approx(1.0, abs=2e-7)


def test_scalar_in_scalar_out():
    out = ec.standard_normal_cdf(1.0)
    assert isinstance(out, float)
    arr = ec.standard_normal_cdf(np.array([0.0, 1.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ks_statistic_at_huge_values_raises_no_overflow():
    assert ec.ks_statistic(np.array([1e200, -1e200]), ec.standard_normal_cdf) == 0.5
