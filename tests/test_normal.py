"""Accuracy tests for the standard normal CDF behind the KS checks."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, strategies as st

import empcalc as ec


def test_cdf_absolute_error_bound():
    # documented bound for the approximation: 7.5e-8 absolute
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
