"""Tests for the correlation coefficient: estimator, influence function,
and the two asymptotic variance formulas.

Closed-form expected values were derived by hand (or against quadrature
oracles in scratch scripts) before the implementation was written.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import assume, example, given, settings, strategies as st

import empcalc as ec
from empcalc import correlation
from empcalc.correlation import BivariateMoments
from empcalc.expansion import delta
from empcalc.streams import derive_rng
from empcalc.streams import derive_rng


def standardized_moments(cov, m22=None, m31=0.0, m13=0.0, m40=3.0, m04=3.0):
    if m22 is None:
        m22 = 1.0 + 2.0 * cov * cov  # Gaussian default
    return BivariateMoments(
        mu_x=0.0, mu_y=0.0, var_x=1.0, var_y=1.0, cov_xy=cov,
        m22=m22, m31=m31, m13=m13, m40=m40, m04=m04)


# --------------------------------------------------------- BivariateMoments

def test_moments_reject_degenerate_variance():
    with pytest.raises(ec.DegenerateSampleError, match="degenerated marginal"):
        BivariateMoments(0, 0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 3.0, 3.0)


def test_moments_reject_jensen_violation():
    # m40 < var_x^2 is impossible for any law
    with pytest.raises(ec.MomentError, match="inconsistent moment set"):
        BivariateMoments(0, 0, 2.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 3.0)
    # the slack is relative 1e-9: a shortfall of 1e-7 is refused, one of 1e-10 is rounding
    with pytest.raises(ec.MomentError, match="inconsistent moment set: m40"):
        BivariateMoments(0, 0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0 - 1e-7, 3.0)
    BivariateMoments(0, 0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0 - 1e-10, 3.0)
    # m04 < var_y^2 likewise
    with pytest.raises(ec.MomentError, match=r"^inconsistent moment set: m04 = 1 < var_y\^2 = 1$"):
        BivariateMoments(0, 0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0 - 1e-7)


def test_moments_reject_negative_m22():
    with pytest.raises(ec.MomentError, match="inconsistent moment set"):
        BivariateMoments(0, 0, 1.0, 1.0, 0.0, -0.5, 0.0, 0.0, 3.0, 3.0)


def test_moments_reject_covariance_beyond_bound():
    with pytest.raises(ec.MomentError, match="inconsistent moment set"):
        BivariateMoments(0, 0, 1.0, 1.0, 1.5, 1.0, 0.0, 0.0, 3.0, 3.0)


# ------------------------------------------------------------ population rho

def test_population_rho_standardized():
    assert ec.rho_from_moments(standardized_moments(0.5)) == 0.5
    assert ec.rho_from_moments(standardized_moments(0.0)) == 0.0


def test_population_rho_rescales_by_standard_deviations():
    m = BivariateMoments(0, 0, 4.0, 9.0, 3.0, 40.0, 0.0, 0.0, 48.1, 243.1)
    assert ec.rho_from_moments(m) == pytest.approx(0.5, rel=1e-15)


def test_rho_from_moments_returns_one_at_affine_boundary():
    # the value exists; the asymptotic operations are what reject it
    m = BivariateMoments(0, 0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ec.rho_from_moments(m) == 1.0
    with pytest.raises(ec.AffineDependenceError, match="affine dependence"):
        ec.sigma_squared(m)


def test_rho_from_moments_is_shared_by_both_checks():
    m = BivariateMoments(0, 0, 4.0, 9.0, 3.0, 40.0, 0.0, 0.0, 48.1, 243.1)
    rho = correlation.rho_from_moments(m)
    assert ec.correlation_expansion(m).value == rho
    assert correlation._rho_checked(m) == rho
    affine = BivariateMoments(0, 0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)
    assert correlation.rho_from_moments(affine) == 1.0
    with pytest.raises(ec.AffineDependenceError):
        correlation._rho_checked(affine)


# ------------------------------------------------------------- compute_rho_n

def test_rho_n_symmetric_cross_sample_is_zero():
    s = ec.PairedSample([1, -1, 0, 0], [0, 0, 1, -1])
    assert ec.compute_rho_n(s) == 0.0


def test_rho_n_affine_sample_is_one():
    x = np.array([0.3, 1.7, -2.0, 0.9, 4.2])
    s = ec.PairedSample(x, 2.0 * x + 1.0)
    assert ec.compute_rho_n(s) == pytest.approx(1.0, abs=1e-12)


def test_rho_n_four_point_example():
    s = ec.PairedSample([1, 2, 3, 4], [1, 3, 2, 4])
    assert ec.compute_rho_n(s) == pytest.approx(0.8, rel=1e-14)


def test_rho_n_degenerate_marginal_message():
    s = ec.PairedSample(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0]))
    with pytest.raises(ec.DegenerateSampleError, match="degenerated marginal"):
        ec.compute_rho_n(s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("xs", [
    [1.7e308, 1.7e308, -1e300, 3.0],  # the sum behind the mean overflows: mu_x
    [1e160, -1e160, 1.0, 2.0],  # sum(dx^2) overflows: var_x; the true value is -0.239
])
def test_rho_n_of_finite_data_whose_sums_overflow_raises(xs):
    # rho_n fails as estimate does: the sample's moment set is not finite
    s = ec.PairedSample(xs, [1.0, 2.0, 3.0, 5.0])
    with pytest.raises(ec.MomentError, match="inconsistent moment set: non-finite") as rho_n:
        ec.compute_rho_n(s)
    with pytest.raises(ec.MomentError) as moments:
        ec.estimate_moments(s)
    assert str(rho_n.value) == str(moments.value)


@pytest.mark.parametrize("s", [1e160, 1e-160])
def test_rho_n_beyond_the_float_range_raises_only_its_typed_error(s):
    # with warnings as errors, no numpy overflow warning escapes before the
    # typed error of a moment set that is not finite (or not consistent)
    sample = ec.PairedSample(s * np.array([1.0, 2.0, 3.0, 4.0]), s * np.array([1.0, 2.0, 3.0, 5.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (ec.compute_rho_n, ec.estimate_moments):
            with pytest.raises(ec.EmpcalcError):
                f(sample)


def _affine_rounding(v, scale, shift):
    """How far rounding scale*v + shift can move rho_n: the largest rounding
    error of an element, about eps*(|scale*v| + |shift|), over the spread
    of scale*v."""
    eps = np.finfo(float).eps
    return eps * float(np.max(np.abs(scale * v)) + abs(shift)) / (scale * float(np.std(v)))


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
             min_size=3, max_size=40),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
# a*0.1 + 64 rounds by 3.6e-13 in units of x, against a spread of 0.25
@example(pairs=[(0.0, 0.0), (0.25, 0.0), (0.1, 1.0)], a=1 / 64, c=1.0, b=64.0, d=0.0)
def test_rho_n_location_scale_invariance(pairs, a, c, b, d):
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    assume(np.var(xs) > 1e-6 and np.var(ys) > 1e-6)
    # the transformed inputs carry their own rounding, which no rho_n
    # routine can undo; 1e-12 stays the floor
    tol = max(1e-12, 4.0 * (_affine_rounding(xs, a, b) + _affine_rounding(ys, c, d)))
    base = ec.compute_rho_n(ec.PairedSample(xs, ys))
    scaled = ec.compute_rho_n(ec.PairedSample(a * xs + b, c * ys + d))
    assert scaled == pytest.approx(base, abs=tol)
    flipped = ec.compute_rho_n(ec.PairedSample(-a * xs + b, c * ys + d))
    assert flipped == pytest.approx(-base, abs=tol)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                min_size=2, max_size=60))
def test_rho_n_range(pairs):
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    assume(np.var(xs) > 1e-9 and np.var(ys) > 1e-9)
    r = ec.compute_rho_n(ec.PairedSample(xs, ys))
    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


@pytest.mark.parametrize("shift, scale", [
    (0.0, 1.0), (1e3, 1.0), (1e6, 1.0), (0.0, 1e-3), (0.0, 1e3), (1e6, 1e-3), (1e3, 1e3)])
def test_rho_n_is_rho_from_moments_of_the_sample_bitwise(shift, scale):
    # one correlation formula: rho_n is rho_from_moments of the sample's
    # moments, the rho_n that estimate reports, at any location and scale
    rng = derive_rng(2024, int(shift), int(scale * 1000))
    for i in range(25):
        n = int(rng.integers(3, 400))
        xs = rng.standard_normal(n)
        ys = rng.uniform(-0.9, 0.9) * xs + rng.standard_normal(n)
        s = ec.PairedSample(xs * scale + shift, ys * scale - shift)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a small sample's kurtosis warning
            want = ec.rho_from_moments(ec.estimate_moments(s))
        assert ec.compute_rho_n(s).hex() == want.hex(), (i, n)


# ----------------------------------------------------- correlation_influence

def test_influence_reduces_to_product_at_zero_rho():
    h = ec.correlation_influence(standardized_moments(0.0))
    assert h(2.0, 3.0) == 6.0


def test_influence_at_half_rho():
    h = ec.correlation_influence(standardized_moments(0.5))
    assert h(1.0, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_influence_vanishes_at_origin():
    for cov in (0.0, 0.3, -0.7):
        h = ec.correlation_influence(standardized_moments(cov))
        assert h(0.0, 0.0) == 0.0


def test_influence_standardizes_general_moments():
    # H must be invariant to expressing the same law in shifted units
    m_std = standardized_moments(0.4)
    m_gen = BivariateMoments(
        mu_x=2.0, mu_y=-1.0, var_x=9.0, var_y=4.0, cov_xy=0.4 * 6.0,
        m22=m_std.m22 * 36.0, m31=0.0, m13=0.0, m40=3.0 * 81.0, m04=3.0 * 16.0)
    h_std = ec.correlation_influence(m_std)
    h_gen = ec.correlation_influence(m_gen)
    for u, v in [(0.5, -1.2), (2.0, 0.1), (-0.3, -0.4)]:
        assert h_gen(2.0 + 3.0 * u, -1.0 + 2.0 * v) == pytest.approx(
            h_std(u, v), rel=1e-12, abs=1e-12)


def test_influence_is_centered_under_exact_laws():
    laws = [
        ec.GaussianLaw(0.0), ec.GaussianLaw(0.5), ec.GaussianLaw(-0.9),
        ec.IndependentLaw("uniform_std", "exponential_std"),
        ec.IndependentLaw("rademacher", "standard_normal"),
        ec.MixtureLaw([ec.GaussianLaw(0.8), ec.GaussianLaw(-0.2)], [0.3, 0.7]),
        ec.DiscreteLaw([-1.0, 0.0, 2.0], [1.0, -1.0, 0.5], [0.25, 0.5, 0.25]),
    ]
    for law in laws:
        h = ec.correlation_influence(law.bivariate_moments())
        # E[uv] - (rho/2)(E[u^2] + E[v^2]) = rho - rho: centered by construction
        assert law.expectation(h) == pytest.approx(0.0, abs=1e-10)


def test_influence_rejects_affine_case():
    m = BivariateMoments(0, 0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)
    with pytest.raises(ec.AffineDependenceError):
        ec.correlation_influence(m)


# ------------------------------------------------------------- sigma_squared

def test_sigma_squared_independent_standardized_is_one():
    m = standardized_moments(0.0, m22=1.0)
    assert ec.sigma_squared(m) == pytest.approx(1.0, rel=1e-14)


def test_sigma_squared_gaussian_half():
    m = standardized_moments(0.5, m22=1.5, m31=1.5, m13=1.5)
    assert ec.sigma_squared(m) == pytest.approx(0.5625, rel=1e-12)


def test_sigma_squared_reduces_to_m22_at_zero_rho():
    for m22 in (0.7, 1.0, 2.5):
        m = standardized_moments(0.0, m22=m22)
        assert ec.sigma_squared(m) == pytest.approx(m22, rel=1e-14)


def test_sigma_squared_gaussian_closed_form_grid():
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.8):
        law = ec.GaussianLaw(rho)
        got = ec.sigma_squared(law.bivariate_moments())
        assert got == pytest.approx((1.0 - rho * rho) ** 2, abs=1e-12), rho


def test_sigma_squared_affine_case_excluded():
    m = BivariateMoments(0, 0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)
    with pytest.raises(ec.AffineDependenceError, match="affine dependence"):
        ec.sigma_squared(m)


def test_sigma_squared_rejects_a_negative_value():
    # each moment passes its own check, but together they give sigma^2 < 0
    m = BivariateMoments(0, 0, 1.0, 1.0, 0.9, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ec.MomentError, match=r"^inconsistent moment set: sigma\^2 = -1\.395 < 0$"):
        ec.sigma_squared(m)


# ------------------------------------------------------------ sigma1_squared

def test_sigma1_squared_standardized():
    assert ec.sigma1_squared(standardized_moments(0.0, m22=1.0)) == 1.0


def test_sigma1_squared_rescaled():
    m = BivariateMoments(0, 0, 4.0, 1.0, 0.0, 8.0, 0.0, 0.0, 48.1, 3.0)
    assert ec.sigma1_squared(m) == pytest.approx(2.0, rel=1e-15)


def test_sigma1_matches_sigma_when_uncorrelated():
    m = BivariateMoments(0, 0, 2.0, 3.0, 0.0, 5.5, 0.4, -0.2, 12.1, 27.4)
    assert ec.sigma1_squared(m) == pytest.approx(ec.sigma_squared(m), rel=1e-12)


# ----------------------------------------------------------- estimate_moments

def test_estimate_moments_two_point_x_marginal():
    # x = (1, -1): mean 0, variance 1 (denominator n), fourth moment 1
    s = ec.PairedSample([1.0, -1.0], [0.3, 1.7])
    m = ec.estimate_moments(s)
    assert m.mu_x == 0.0
    assert m.var_x == pytest.approx(1.0, rel=1e-15)
    assert m.m40 == pytest.approx(1.0, rel=1e-15)


def test_estimate_moments_constant_column_rejected():
    s = ec.PairedSample(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    with pytest.raises(ec.DegenerateSampleError, match="degenerated marginal"):
        ec.estimate_moments(s)


def test_estimate_moments_standardization_idempotent():
    rng = derive_rng(2024, 1)
    s = ec.GaussianLaw(0.4).sample(500, rng)
    m = ec.estimate_moments(s)
    z = ec.PairedSample((s.xs - m.mu_x) / m.sd_x, (s.ys - m.mu_y) / m.sd_y)
    mz = ec.estimate_moments(z)
    assert mz.mu_x == pytest.approx(0.0, abs=1e-12)
    assert mz.mu_y == pytest.approx(0.0, abs=1e-12)
    assert mz.var_x == pytest.approx(1.0, abs=1e-12)
    assert mz.var_y == pytest.approx(1.0, abs=1e-12)


def test_estimate_moments_uses_n_denominator():
    s = ec.PairedSample([0.0, 2.0], [0.0, 1.0])
    m = ec.estimate_moments(s)
    # var with denominator n: ((0-1)^2 + (2-1)^2)/2 = 1, not 2
    assert m.var_x == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_estimate_moments_matches_two_pass_reference(shift, scale):
    """The moments match two-pass np.mean(dx**p * dy**q) about the reported
    means at any location and scale; those means match the plain mean."""
    rng = derive_rng(2025, 3)
    z1, z2 = rng.standard_normal(2000), rng.standard_normal(2000)
    x = z1 + 0.3 * z1 * z1                  # skewed, so the odd moments are far from 0
    y = 0.6 * x + z2
    s = ec.PairedSample(shift + scale * x, -shift + scale * y)
    m = ec.estimate_moments(s)
    # the reported means carry one residual correction, which at a shift of
    # 1e6 moves them by ulps; centring the reference on the plain mean would
    # fold that move into every moment
    dx, dy = s.xs - m.mu_x, s.ys - m.mu_y
    expected = {"mu_x": s.xs.mean(), "mu_y": s.ys.mean()}
    for name, (px, py) in {"var_x": (2, 0), "var_y": (0, 2), "cov_xy": (1, 1),
                           "m22": (2, 2), "m31": (3, 1), "m13": (1, 3),
                           "m40": (4, 0), "m04": (0, 4)}.items():
        expected[name] = np.mean(dx ** px * dy ** py)
    for name, want in expected.items():
        assert getattr(m, name) == pytest.approx(want, rel=1e-12, abs=0.0), name


def test_estimate_moments_heavy_tail_warning():
    # one extreme outlier among n points drives plug-in kurtosis to ~n
    xs = np.concatenate([np.ones(100), -np.ones(100), [1e4]])
    ys = np.linspace(-1.0, 1.0, 201)
    s = ec.PairedSample(xs, ys)
    with pytest.warns(UserWarning, match="kurtosis"):
        ec.estimate_moments(s)


# ------------------------------------------------------ correlation_expansion

def test_expansion_value_is_population_rho():
    for cov in (-0.6, 0.0, 0.45):
        m = standardized_moments(cov)
        e = ec.correlation_expansion(m)
        assert e.value == pytest.approx(ec.rho_from_moments(m), rel=1e-14)


def _random_discrete_laws(seed, count):
    rng = derive_rng(seed)
    for _ in range(count):
        k = int(rng.integers(3, 13))
        scale, shift = 10.0 ** rng.integers(-3, 4), rng.choice([0.0, 1.0, 1e3, 1e6])
        w = rng.random(k) + 0.1
        yield ec.DiscreteLaw(rng.uniform(-2.0, 2.0, k) * scale + shift,
                             rng.uniform(-2.0, 2.0, k) * scale - shift, w / w.sum())


def test_expansion_value_is_rho_from_moments_bitwise():
    # the delta method's value is the same quotient as rho_from_moments, so
    # variance reports the law's rho with the bits every other route gives
    polynomial = [ec.GaussianLaw(r) for r in (-0.9, -0.37, 0.0, 0.3, 0.61, 0.95)]
    polynomial += [ec.IndependentLaw(mx, my) for mx in ec.MARGINALS for my in ec.MARGINALS]
    skewed = ec.IndependentLaw("uniform_std", "exponential_std")
    polynomial += [ec.MixtureLaw([ec.GaussianLaw(0.7), skewed], [0.3, 0.7]),
                   ec.MixtureLaw([ec.GaussianLaw(0.5), ec.GaussianLaw(-0.2)], [0.55, 0.45])]
    for law in [*polynomial, *_random_discrete_laws(2028, 300)]:
        m = law.bivariate_moments()
        assert (ec.correlation_expansion(m).value.hex()
                == ec.rho_from_moments(m).hex()), law.describe()


def test_expansion_influence_matches_closed_form_up_to_constant():
    """The pipeline-built influence and the closed-form H may differ only
    by an additive constant (Gamma is blind to constants)."""
    m = standardized_moments(0.5)
    e = ec.correlation_expansion(m)
    h = ec.correlation_influence(m)
    grid = np.linspace(-2.0, 2.0, 10)
    diffs = np.array([e.influence(x, y) - h(x, y) for x in grid for y in grid])
    assert diffs.max() - diffs.min() <= 1e-10


@pytest.mark.parametrize("point", [(0.0, 0.0, 0.5, 1.0, 1.0),
                                   (1.5, -2.0, -2.1, 4.25, 6.5),
                                   (-0.3, 0.7, 0.1, 2.0, 0.6)])
def test_expansion_gradient_matches_central_differences(point):
    grad = correlation._rho_of_means_grad(*point)
    for j in range(5):
        h = 1e-6
        up = list(point)
        down = list(point)
        up[j] += h
        down[j] -= h
        numeric = (correlation._rho_of_means(*up) - correlation._rho_of_means(*down)) / (2 * h)
        assert grad[j] == pytest.approx(numeric, rel=1e-6, abs=1e-8)


def test_expansion_is_one_delta_call_on_five_means(monkeypatch):
    calls = []

    def counting(g, grad, *expansions):
        calls.append([e.influence.label for e in expansions])
        return delta(g, grad, *expansions)

    monkeypatch.setattr(correlation, "delta", counting)
    ec.correlation_expansion(standardized_moments(0.3))
    # the law's centred coordinates u = pi1 - mu_x and v = pi2 - mu_y, here mu = 0
    assert calls == [["pi1 + -0", "pi2 + -0", "(pi1 + -0)*(pi2 + -0)",
                      "(pi1 + -0)^2", "(pi2 + -0)^2"]]


@pytest.mark.parametrize("shift, scale", [
    (shift, scale) for shift in (0.0, 1e2, 1e4, 1e6) for scale in (1e-3, 1.0, 1e3)])
def test_pipeline_sigma_squared_is_shift_and_scale_stable(shift, scale):
    # the expansion is taken about the law's mean, so a shift up to 1e9 times
    # the scale leaves the pipeline in agreement with the closed form
    rng = derive_rng(2025, int(shift), int(scale * 1000))
    for _ in range(8):
        k = int(rng.integers(6, 13))
        xs = rng.uniform(-2.0, 2.0, k) * scale + shift
        ys = rng.uniform(-2.0, 2.0, k) * scale - shift
        w = rng.random(k) + 0.1
        law = ec.DiscreteLaw(xs, ys, w / w.sum())
        m = law.bivariate_moments()
        pipeline = ec.asymptotic_variance(ec.correlation_expansion(m), law)
        assert pipeline == pytest.approx(ec.sigma_squared(m), rel=1e-9)


def test_expansion_of_a_law_on_a_tiny_scale():
    # sd_x sd_y is about 1e-14 here, below the quotient's DIV_FLOOR; rho_n is
    # scale-free, so the expansion exists and matches the closed form
    law = ec.DiscreteLaw(np.array([-1.0, 0.5, 2.0, -0.5]) * 1e-7,
                         np.array([0.5, -1.0, 1.0, 2.0]) * 1e-7, [0.2, 0.3, 0.25, 0.25])
    m = law.bivariate_moments()
    e = ec.correlation_expansion(m)
    assert e.value == pytest.approx(ec.rho_from_moments(m), rel=1e-12)
    assert ec.asymptotic_variance(e, law) == pytest.approx(ec.sigma_squared(m), rel=1e-9)


def test_expansion_variance_gaussian_half():
    law = ec.GaussianLaw(0.5)
    e = ec.correlation_expansion(law.bivariate_moments())
    assert ec.asymptotic_variance(e, law) == pytest.approx(0.5625, rel=1e-12)


def test_formula_pipeline_equivalence_across_laws():
    laws = [
        ec.GaussianLaw(-0.8), ec.GaussianLaw(0.0), ec.GaussianLaw(0.6),
        ec.IndependentLaw("uniform_std", "exponential_std"),
        ec.IndependentLaw("standard_normal", "rademacher"),
        ec.MixtureLaw([ec.GaussianLaw(0.9), ec.GaussianLaw(0.1)], [0.5, 0.5]),
        ec.DiscreteLaw([-1.0, 0.5, 2.0, -0.5], [0.5, -1.0, 1.0, 2.0],
                       [0.2, 0.3, 0.25, 0.25]),
    ]
    for law in laws:
        m = law.bivariate_moments()
        direct = ec.sigma_squared(m)
        via_pipeline = ec.asymptotic_variance(ec.correlation_expansion(m), law)
        assert via_pipeline == pytest.approx(direct, rel=1e-9), law.describe()


QUADRATIC_FORM_LAWS = (
    [ec.GaussianLaw(r) for r in (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)]
    + [ec.IndependentLaw(mx, my) for mx in ec.MARGINALS for my in ec.MARGINALS]
    + [ec.MixtureLaw([ec.GaussianLaw(0.7), ec.IndependentLaw("uniform_std", "exponential_std")],
                     [0.3, 0.7]),
       ec.MixtureLaw([ec.GaussianLaw(0.5), ec.GaussianLaw(-0.2)], [0.55, 0.45]),
       ec.MixtureLaw([ec.IndependentLaw("rademacher", "exponential_std"), ec.GaussianLaw(-0.8),
                      ec.IndependentLaw("standard_normal", "uniform_std")], [0.2, 0.5, 0.3])])


@pytest.mark.parametrize("law", QUADRATIC_FORM_LAWS, ids=lambda law: law.kind)
def test_pipeline_variance_is_the_quadratic_form_over_non_zero_slopes(law):
    # at a centred law the slopes of u and v are exactly 0, so s^T Gamma_F s
    # runs over uv, u^2 and v^2, as one product with gamma_matrix's Gamma_F;
    # it is the Gamma(h, h) of the influence
    e = ec.correlation_expansion(law.bivariate_moments())
    assert [s for s, _ in e.terms[:2]] == [0.0, 0.0]
    terms = e.terms[2:]
    s = np.array([t for t, _ in terms])
    want = float(s @ ec.gamma_matrix([f for _, f in terms], law).entries @ s)
    pipeline = ec.asymptotic_variance(e, law)
    assert pipeline.hex() == want.hex()
    assert pipeline == pytest.approx(law.covariance_estimate(e.influence, e.influence).value,
                                     rel=1e-12)


def count_influence_algebra(monkeypatch):
    """Record each StatFunction sum and each product with a number."""
    calls = []
    add, mul, rmul = ec.StatFunction.__add__, ec.StatFunction.__mul__, ec.StatFunction.__rmul__

    def counted_mul(f, g):
        if not isinstance(g, ec.StatFunction):
            calls.append("scalar *")
        return mul(f, g)

    monkeypatch.setattr(ec.StatFunction, "__add__", lambda f, g: calls.append("+") or add(f, g))
    monkeypatch.setattr(ec.StatFunction, "__mul__", counted_mul)
    monkeypatch.setattr(ec.StatFunction, "__rmul__",
                        lambda f, c: calls.append("scalar r*") or rmul(f, c))
    return calls


@pytest.mark.parametrize("law", [
    ec.GaussianLaw(0.45), ec.IndependentLaw("uniform_std", "exponential_std"),
    ec.MixtureLaw([ec.GaussianLaw(0.8), ec.IndependentLaw("rademacher", "standard_normal")],
                  [0.3, 0.7]),
    ec.DiscreteLaw([-1.0, 0.5, 2.0, -0.5, 1.5], [0.5, -1.0, 1.0, 2.0, 0.25],
                   [0.2, 0.3, 0.25, 0.15, 0.1])], ids=lambda law: law.kind)
def test_pipeline_variance_builds_no_influence(monkeypatch, law):
    m = law.bivariate_moments()
    calls = count_influence_algebra(monkeypatch)
    e = ec.correlation_expansion(m)
    ec.asymptotic_variance(e, law)
    assert calls == []
    # reading the influence builds it: five slope * f, four sums, once
    assert e.influence.label == "corr_influence_pipeline"
    assert (calls.count("scalar r*"), calls.count("scalar *"), calls.count("+")) == (5, 5, 4)
    calls.clear()
    e.influence
    assert calls == []


class _GaussianWithoutM22(ec.GaussianLaw):
    """gaussian(0.5) whose E[X^2 Y^2] reads 0, not 1.5: no law has these moments,
    and its Gamma_F over (uv, u^2, v^2) is not PSD."""

    def raw_moment(self, i, j):
        return 0.0 if (i, j) == (2, 2) else super().raw_moment(i, j)


def test_negative_quadratic_form_names_the_pipeline_without_building_it(monkeypatch):
    # CI's discrete mixture shifted x + 1e4, y - 1e4: a polynomial-oracle
    # mixture integrates F about its mean, so the pipeline matches the
    # flattened atoms (it was a negative variance while F was integrated
    # against raw moments, which cancel there)
    s = 1e4
    parts = [([x + s for x in xs], [y - s for y in ys], w) for xs, ys, w in (
        ([0.1, 1.3, -0.7, 2.2, 0.5], [1.0, -0.4, 0.3, 0.9, -1.1], [0.1, 0.2, 0.3, 0.25, 0.15]),
        ([-1.0, 0.4, 2.5], [0.6, -0.8, 1.7], [0.3, 0.5, 0.2]))]
    law = ec.MixtureLaw([ec.DiscreteLaw(*part) for part in parts], [0.6, 0.4])
    flat = ec.DiscreteLaw([x for xs, _, _ in parts for x in xs], [y for _, ys, _ in parts for y in ys],
                          [0.6 * w for w in parts[0][2]] + [0.4 * w for w in parts[1][2]])
    want = ec.sigma_squared(flat.bivariate_moments())
    assert ec.asymptotic_variance(ec.correlation_expansion(law.bivariate_moments()), law) == (
        pytest.approx(want, rel=1e-9))
    # an oracle whose Gamma_F is not PSD: the error names the pipeline, which is not built
    m = ec.GaussianLaw(0.5).bivariate_moments()
    calls = count_influence_algebra(monkeypatch)
    e = ec.correlation_expansion(m)
    with pytest.raises(ec.MomentError,
                       match=r"^negative asymptotic variance -\S+ for corr_influence_pipeline$"):
        ec.asymptotic_variance(e, _GaussianWithoutM22(0.5))
    assert calls == []
    assert "influence" not in vars(e)


# ------------------------------------------------------ test_zero_correlation

def test_zero_statistic_on_exactly_uncorrelated_sample():
    s = ec.PairedSample([1, 1, -1, -1], [1, -1, 1, -1])
    with pytest.warns(UserWarning, match="normal approximation"):
        result = ec.test_zero_correlation(s)
    assert result.z == 0.0
    assert result.p_value == pytest.approx(1.0, abs=2e-7)


def test_zero_correlation_degenerate_sigma1():
    # rho_n = 0 but also m22 = 0: the variance of the limit is degenerate
    s = ec.PairedSample([1, -1, 0, 0], [0, 0, 1, -1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-n warning fires first
        with pytest.raises(ec.DegenerateSampleError):
            ec.test_zero_correlation(s)


def test_zero_correlation_p_value_keeps_relative_accuracy_in_the_tail():
    # z from about 6.7 to 12.5: 2 (1 - Phi(|z|)) is off by ~1% at the low end, 0.0 past 8.3
    for i, rho in enumerate((0.08, 0.12, 0.16, 0.2)):
        s = ec.GaussianLaw(rho).sample(5000, derive_rng(31, i))
        z, p_value = ec.test_zero_correlation(s)
        assert 5.0 <= abs(z) <= 15.0
        assert p_value == pytest.approx(2.0 * sps.norm.sf(abs(z)), rel=1e-12, abs=0.0)


def test_zero_correlation_calibrated_under_independence():
    # moderate-scale calibration run; the acceptance suite runs the full one
    law = ec.IndependentLaw("standard_normal", "standard_normal")
    runs, n = 1000, 400
    hits = sum(
        ec.test_zero_correlation(law.sample(n, derive_rng(901, i))).p_value < 0.05
        for i in range(runs))
    assert 0.03 <= hits / runs <= 0.07


def test_zero_correlation_power_at_half_rho():
    law = ec.GaussianLaw(0.5)
    runs, n = 200, 500
    rejections = sum(
        ec.test_zero_correlation(law.sample(n, derive_rng(77, i))).p_value < 1e-3
        for i in range(runs))
    assert rejections / runs >= 0.99


def test_sigma_estimate_consistency_in_n():
    """Plug-in sigma^2 converges: median abs error shrinks from n=1e3 to 1e5."""
    law = ec.GaussianLaw(0.5)
    exact = ec.sigma_squared(law.bivariate_moments())
    errs = {1_000: [], 100_000: []}
    for rep in range(50):
        for n in errs:
            s = law.sample(n, derive_rng(4242, rep, n))
            est = ec.sigma_squared(ec.estimate_moments(s))
            errs[n].append(abs(est - exact))
    assert np.median(errs[100_000]) < np.median(errs[1_000])
