"""Tests for G_n evaluation, the covariance functional, and moment oracles."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empcalc as ec
from empcalc.empirical import CovarianceMatrix, SamplingMoments
from empcalc.streams import derive_rng, derive_seed


def gaussian_sampler(law):
    return lambda n, rng: law.sample(n, rng)


# ---------------------------------------------------------------- gn_eval

def test_gn_eval_product_example():
    # {(1,2),(3,4)}, f=p, mean 5: (2 + 12 - 10)/sqrt(2)
    s = ec.PairedSample([1.0, 3.0], [2.0, 4.0])
    got = ec.gn_eval(s, ec.p, 5.0)
    assert got == pytest.approx(2.8284271247461903, rel=1e-14)


def test_gn_eval_linearity_exact_example():
    s = ec.PairedSample([1.0, 3.0], [2.0, 4.0])
    a, b = 2.0, -1.0
    mu_f, mu_g = 5.0, 1.5
    combined = ec.gn_eval(s, a * ec.p + b * ec.pi1, a * mu_f + b * mu_g)
    separate = a * ec.gn_eval(s, ec.p, mu_f) + b * ec.gn_eval(s, ec.pi1, mu_g)
    assert combined == pytest.approx(separate, abs=1e-12)


def test_gn_eval_empty_sample_message():
    # PairedSample itself refuses n < 2, so exercise the guard with a stand-in
    empty = types.SimpleNamespace(xs=np.array([]), ys=np.array([]))
    with pytest.raises(ec.EvaluationError, match="empty sample"):
        ec.gn_eval(empty, ec.pi1, 0.0)


def test_gn_eval_nonfinite_evaluation_message():
    s = ec.PairedSample([0.0, 1.0], [1.0, 2.0])
    f = ec.StatFunction(lambda x, y: np.log(np.asarray(x, dtype=float)), label="log(x)")
    with np.errstate(divide="ignore"):
        with pytest.raises(ec.EvaluationError, match="non-finite evaluation"):
            ec.gn_eval(s, f, 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_gn_eval_of_finite_values_whose_sum_overflows_raises():
    s = ec.PairedSample([1.7e308, 1.7e308, -1e300, 3.0], [1.0, 2.0, 3.0, 5.0])
    with pytest.raises(ec.EvaluationError, match=r"G_n\(pi1\) is not finite"):
        ec.gn_eval(s, ec.pi1, 0.0)
    assert ec.gn_eval(s, ec.pi2, 2.75) == 0.0


def test_gn_eval_rejects_a_function_of_the_wrong_shape():
    # the scalar used to broadcast into G_n = (1 - 100) / 10 = -9.9; the true value is 0.0
    s = ec.GaussianLaw(0.5).sample(100, derive_rng(1))
    one = ec.StatFunction(lambda x, y: 1.0, "one")
    with pytest.raises(ec.EvaluationError, match=r"^one returned shape \(\), expected \(100,\)$"):
        ec.gn_eval(s, one, 1.0)

@settings(max_examples=50)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gn_eval_linearity_property(a, b, seed):
    rng = np.random.default_rng(seed)
    s = ec.PairedSample(rng.normal(size=13), rng.normal(size=13))
    mu_f, mu_g = 0.3, -1.2
    lhs = ec.gn_eval(s, a * ec.p + b * ec.pi2, a * mu_f + b * mu_g)
    rhs = a * ec.gn_eval(s, ec.p, mu_f) + b * ec.gn_eval(s, ec.pi2, mu_g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------------ gamma

def test_gamma_of_constants_is_zero():
    law = ec.GaussianLaw(0.3)
    c = ec.constant(7.0)
    assert law.covariance(c, c) == 0.0


def test_gamma_cross_term_vanishes_at_zero_correlation():
    law = ec.GaussianLaw(0.0)
    assert law.covariance(ec.pi1, ec.pi2) == 0.0


def test_gamma_unit_variance_of_standardized_coordinate():
    for law in (ec.GaussianLaw(0.4), ec.IndependentLaw("uniform_std", "rademacher")):
        assert law.covariance(ec.pi1, ec.pi1) == pytest.approx(1.0, rel=1e-14)
        assert law.covariance(ec.pi2, ec.pi2) == pytest.approx(1.0, rel=1e-14)


def test_gamma_estimate_reports_method():
    law = ec.GaussianLaw(0.5)
    est = law.covariance_estimate(ec.pi1, ec.pi2)
    assert est.method == "exact"
    assert est.stderr == 0.0
    assert est.value == pytest.approx(0.5, rel=1e-14)


def test_gamma_monte_carlo_tracks_exact():
    law = ec.GaussianLaw(0.5)
    mc = law.monte_carlo(budget=200_000, seed=7)
    est = mc.covariance_estimate(ec.pi1, ec.pi2)
    assert est.method == "monte_carlo"
    assert est.stderr > 0.0
    assert abs(est.value - 0.5) < 4.0 * est.stderr + 1e-3


def test_gamma_nonpolynomial_falls_back_to_sampling():
    law = ec.GaussianLaw(0.0)
    f = ec.StatFunction(lambda x, y: np.sin(np.asarray(x, dtype=float)), label="sin(x)")
    est = law.covariance_estimate(f, f)
    assert est.method == "monte_carlo"
    # Var sin(X) = (1 - e^-2)/2 + ((1 - e^-1)... ) under N(0,1): 0.5(1-e^-2) - 0
    target = 0.5 * (1.0 - math.exp(-2.0))
    assert est.value == pytest.approx(target, abs=4.0 * est.stderr + 1e-3)


def test_gamma_moment_divergence_message():
    law = ec.GaussianLaw(0.0)
    bad = ec.StatFunction(
        lambda x, y: np.where(np.abs(np.asarray(x)) > 1.0, np.inf, 0.0),
        label="spike")
    with pytest.raises(ec.MomentError, match="moment does not exist under this law"):
        law.covariance(bad, bad)


class _ExactOnlyGaussian(ec.PolynomialMomentOracle):
    """gaussian(0.5) raw moments with no sampling fallback; counts raw moments."""

    def __init__(self):
        self.law = ec.GaussianLaw(0.5)
        self.raw_calls = 0

    def raw_moment(self, i, j):
        self.raw_calls += 1
        return self.law.raw_moment(i, j)


def test_oracle_without_fallback_raises_one_error_for_a_non_polynomial_function():
    oracle = _ExactOnlyGaussian()
    cos1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")
    message = r"^cos\(pi1\) is not polynomial and this oracle cannot sample$"
    with pytest.raises(ec.MomentError, match=message):
        oracle.expectation(cos1)
    with pytest.raises(ec.MomentError, match=message):
        oracle.covariance_estimate(ec.pi1, cos1)
    with pytest.raises(ec.MomentError, match=message):
        ec.gamma_matrix([ec.pi1, ec.pi2, cos1], oracle)
    # the route is chosen before any pair is integrated
    assert oracle.raw_calls == 0
    # polynomial families stay exact
    assert oracle.covariance_estimate(ec.pi1, ec.pi2) == (0.5, 0.0, "exact")
    assert ec.gamma_matrix([ec.pi1, ec.pi2], oracle).method == "exact"

discrete_atoms = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.tuples(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                 min_size=k, max_size=k),
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                 min_size=k, max_size=k),
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k),
    )
)


@settings(max_examples=60)
@given(discrete_atoms)
def test_cauchy_schwarz_for_exact_laws(atoms):
    xs, ys, raw_w = atoms
    w = np.asarray(raw_w) / np.sum(raw_w)
    law = ec.DiscreteLaw(xs, ys, w)
    for f, g in [(ec.pi1, ec.pi2), (ec.p, ec.pi1), (ec.pi1 + ec.pi2, ec.p)]:
        gfg = law.covariance(f, g)
        gff = law.covariance(f, f)
        ggg = law.covariance(g, g)
        assert gfg * gfg <= gff * ggg + 1e-9


@settings(max_examples=30)
@given(st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
def test_cauchy_schwarz_gaussian(rho):
    law = ec.GaussianLaw(rho)
    fams = [ec.pi1, ec.pi2, ec.p, ec.pi1**2 - 1.0, ec.pi1 * ec.pi2 - rho]
    for f in fams:
        for g in fams:
            gfg = law.covariance(f, g)
            assert gfg * gfg <= law.covariance(f, f) * law.covariance(g, g) + 1e-9


# ----------------------------------------------------------- gamma_matrix

def test_gamma_matrix_single_function():
    m = ec.gamma_matrix([ec.pi1], ec.GaussianLaw(0.2))
    np.testing.assert_allclose(m.entries, [[1.0]], rtol=1e-14)
    assert m.labels == ("pi1",)


def test_gamma_matrix_duplicated_function_is_rank_one():
    m = ec.gamma_matrix([ec.pi1, ec.pi1], ec.GaussianLaw(0.0))
    np.testing.assert_allclose(m.entries, [[1.0, 1.0], [1.0, 1.0]], rtol=1e-14)
    assert m.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_gamma_matrix_gaussian_half():
    m = ec.gamma_matrix([ec.pi1, ec.pi2], ec.GaussianLaw(0.5))
    np.testing.assert_allclose(m.entries, [[1.0, 0.5], [0.5, 1.0]], rtol=1e-14)
    assert m.method == "exact"


def test_gamma_matrix_sampling_fallback_is_psd():
    law = ec.GaussianLaw(0.3)
    opaque = ec.StatFunction(
        lambda x, y: np.tanh(np.asarray(x, dtype=float)), label="tanh(x)")
    fs = [ec.pi1, ec.pi2, opaque, ec.p]
    m = ec.gamma_matrix(fs, law.monte_carlo(budget=50_000, seed=5))
    assert m.method == "monte_carlo"
    assert m.min_eigenvalue >= -1e-10
    np.testing.assert_allclose(m.entries, m.entries.T, rtol=0, atol=0)


def test_gamma_matrix_error_names_the_pair():
    law = ec.GaussianLaw(0.0)
    bad = ec.StatFunction(
        lambda x, y: np.where(np.abs(np.asarray(x)) > 1.0, np.nan, 0.0),
        label="hole")
    with pytest.raises(ec.MomentError, match=r"pair \(pi1, hole\)"):
        ec.gamma_matrix([ec.pi1, bad], law)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gamma_matrix_gram_property(seed):
    rng = np.random.default_rng(seed)
    rho = float(rng.uniform(-0.9, 0.9))
    coeffs = rng.uniform(-2, 2, size=(3, 4))
    fs = [
        c[0] * ec.pi1 + c[1] * ec.pi2 + c[2] * ec.p + c[3] * ec.pi1**2
        for c in coeffs
    ]
    m = ec.gamma_matrix(fs, ec.GaussianLaw(rho))
    asym = np.abs(m.entries - m.entries.T).max()
    assert asym <= 1e-12 * max(1.0, np.abs(m.entries).max())
    assert m.min_eigenvalue >= -1e-10


# ------------------------------------- gamma_matrix: integrations, bits, memory

FAMILY = [ec.pi1, ec.pi2, ec.p, ec.pi1 ** 2, ec.pi2 ** 2]
COS_PI1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")


def exact_laws():
    return [
        ec.GaussianLaw(0.4),
        ec.IndependentLaw("uniform_std", "exponential_std"),
        ec.law_from_spec({"kind": "mixture", "weights": [0.6, 0.4], "components": [
            {"kind": "gaussian", "rho": 0.2},
            {"kind": "independent", "marginal_x": "uniform_std", "marginal_y": "rademacher"}]}),
        ec.DiscreteLaw([0.1, 1.3, -0.7, 2.2], [1.0, -0.4, 0.3, 0.9], [0.1, 0.2, 0.3, 0.4]),
    ]


def count_expectations(monkeypatch, law):
    calls = []
    expectation = law.expectation

    def counted(f):
        calls.append(f.label)
        return expectation(f)

    monkeypatch.setattr(law, "expectation", counted)
    return calls


def counting(f, calls):
    """f without its polynomial form, counting its evaluations on arrays."""
    def fn(x, y):
        calls.append(f.label)
        return f(x, y)
    return ec.StatFunction(fn, f.label)


@pytest.mark.parametrize("law, means", [(ec.GaussianLaw(0.4), [f.label for f in FAMILY]),
                                         (exact_laws()[-1], [])], ids=["gaussian", "discrete"])
def test_gamma_matrix_takes_each_mean_once(monkeypatch, law, means):
    calls = count_expectations(monkeypatch, law)
    ec.gamma_matrix(FAMILY, law)
    # no product E[f_i f_j] goes through expectation(): a polynomial law
    # integrates coefficients, a discrete law its atom values, which also
    # give it the means; so 5 means or none, against 45 pair by pair
    assert calls == means


def test_exact_variance_takes_the_mean_once(monkeypatch):
    for law, means in ((ec.GaussianLaw(0.4), ["p"]), (exact_laws()[-1], [])):
        calls = count_expectations(monkeypatch, law)
        law.covariance_estimate(ec.p, ec.p)
        assert calls == means


def test_discrete_gamma_matrix_evaluates_each_function_once():
    law = exact_laws()[-1]
    calls = []
    g = ec.gamma_matrix([counting(f, calls) for f in FAMILY], law)
    assert calls == [f.label for f in FAMILY]
    assert g.entries.tobytes() == ec.gamma_matrix(FAMILY, law).entries.tobytes()
    calls.clear()
    f = counting(ec.p, calls)
    law.covariance_estimate(f, f)
    assert calls == ["p"]


@pytest.mark.parametrize("index", range(len(exact_laws())))
def test_exact_gamma_matrix_builds_no_product_function(monkeypatch, index):
    law = exact_laws()[index]
    products = []
    mul = ec.StatFunction.__mul__

    def counted(f, g):
        products.append((f.label, getattr(g, "label", g)))
        return mul(f, g)

    monkeypatch.setattr(ec.StatFunction, "__mul__", counted)
    ec.gamma_matrix(FAMILY, law)
    law.covariance_estimate(ec.p, ec.pi1)
    assert products == []


def test_sampling_gamma_matrix_evaluates_each_function_once_per_row():
    mc = ec.GaussianLaw(0.5).monte_carlo(budget=1000, seed=3)
    calls = []
    ec.gamma_matrix([counting(f, calls) for f in FAMILY], mc)
    # row i evaluates f_i once and each f_j, j > i, once: k(k+1)/2, not k(k+1)
    assert len(calls) == 15
    calls.clear()
    f = counting(ec.p, calls)
    mc.covariance_estimate(f, f)
    assert calls == ["p"]


def reference_covariance(oracle, f, g):
    """Gamma(f, g) computed pair by pair, each function integrated afresh."""
    if isinstance(oracle, SamplingMoments):
        s = oracle.batch()
        fv, gv = f(s.xs, s.ys), g(s.xs, s.ys)
        w = (fv - fv.mean()) * (gv - gv.mean())
        return float(w.sum() / (w.size - 1))
    return oracle.expectation(f * g) - oracle.expectation(f) * oracle.expectation(g)


def assert_gamma_matrix_matches_pairwise(fs, oracle):
    k = len(fs)
    want = np.array([[reference_covariance(oracle, fs[min(i, j)], fs[max(i, j)])
                      for j in range(k)] for i in range(k)])
    assert ec.gamma_matrix(fs, oracle).entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("index", range(4), ids=["gaussian", "independent", "mixture", "discrete"])
def test_gamma_matrix_bits_equal_pairwise_covariances(index):
    assert_gamma_matrix_matches_pairwise(FAMILY, exact_laws()[index])


def test_sampling_gamma_matrix_bits_equal_pairwise_covariances():
    mc = ec.GaussianLaw(0.5).monte_carlo(budget=20_000)
    assert_gamma_matrix_matches_pairwise(FAMILY[:3] + [COS_PI1] + FAMILY[3:], mc)


def test_gamma_matrix_names_the_first_failing_pair_on_both_routes():
    log_x = ec.StatFunction(lambda x, y: np.log(x), "log(x)")
    fs = [ec.pi1, ec.p, log_x, ec.pi2]
    discrete = ec.DiscreteLaw([0.0, 1.3, -0.7], [1.0, -0.4, 0.3], [0.2, 0.3, 0.5])
    mc = ec.GaussianLaw(0.5).monte_carlo(budget=1000, seed=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ec.MomentError, match=(
                r"^gamma failed for pair \(pi1, log\(x\)\): moment does not exist under "
                r"this law at requested precision \(pi1\*log\(x\): non-finite at an atom\)$")):
            ec.gamma_matrix(fs, discrete)
        with pytest.raises(ec.MomentError, match=(
                r"^gamma failed for pair \(pi1, log\(x\)\): moment does not exist under "
                r"this law at requested precision \(log\(x\): non-finite draw\)$")):
            ec.gamma_matrix(fs, mc)


def test_sampling_gamma_matrix_holds_one_row_of_centred_values():
    budget = 250_000
    mc = ec.GaussianLaw(0.5).monte_carlo(budget=budget, seed=11)
    mc.batch()
    fs = [ec.StatFunction(lambda x, y, a=a: np.cos(a * x), f"cos({a:g}*pi1)") + 0 * ec.pi2
          for a in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)]
    tracemalloc.start()
    try:
        ec.gamma_matrix(fs, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row's centred values, then an evaluation and its centred copy, plus
    # a little for Python objects; pair by pair took 4 arrays, and holding
    # every centred array takes more
    assert peak <= 3 * 8 * budget + 64 * 1024


# ------------------------------------------------------- CovarianceMatrix

def test_covariance_matrix_rejects_asymmetry():
    with pytest.raises(ec.MomentError, match="asymmetric"):
        CovarianceMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]), ("a", "b"))


def test_covariance_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ec.MomentError, match="not PSD"):
        CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covariance_matrix_rejects_a_non_finite_entry(bad):
    with pytest.raises(ec.MomentError, match="^non-finite covariance matrix entry$"):
        CovarianceMatrix(np.array([[1.0, bad], [bad, 1.0]]), ("a", "b"))


def test_covariance_matrix_entries_are_frozen():
    m = CovarianceMatrix(np.eye(2), ("a", "b"))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


# -------------------------------------------------------- SamplingMoments

def test_sampling_moments_deterministic_across_instances():
    law = ec.GaussianLaw(0.6)
    a = SamplingMoments(gaussian_sampler(law), budget=10_000, seed=123)
    b = SamplingMoments(gaussian_sampler(law), budget=10_000, seed=123)
    ea = a.covariance_estimate(ec.p, ec.pi1)
    eb = b.covariance_estimate(ec.p, ec.pi1)
    assert ea.value == eb.value
    assert ea.stderr == eb.stderr


def test_sampling_moments_distinct_seeds_differ():
    law = ec.GaussianLaw(0.6)
    a = SamplingMoments(gaussian_sampler(law), budget=10_000, seed=123)
    b = SamplingMoments(gaussian_sampler(law), budget=10_000, seed=124)
    assert a.covariance(ec.p, ec.pi1) != b.covariance(ec.p, ec.pi1)


def test_sampling_moments_rejects_tiny_budget():
    law = ec.GaussianLaw(0.0)
    with pytest.raises(ec.MomentError):
        SamplingMoments(gaussian_sampler(law), budget=1, seed=0)


def test_stderr_is_the_standard_deviation_of_the_products_over_sqrt_budget():
    law = ec.GaussianLaw(0.6)
    mc = SamplingMoments(gaussian_sampler(law), budget=1_000_000, seed=123)
    s = mc.batch()
    cos_pi1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")
    for f, g in ((ec.p, ec.pi1), (ec.pi2, ec.pi2), (cos_pi1, ec.p)):
        fv, gv = f(s.xs, s.ys), g(s.xs, s.ys)
        w = (fv - fv.mean()) * (gv - gv.mean())
        est = mc.covariance_estimate(f, g)
        assert est.value == float(w.sum() / (w.size - 1))
        assert est.stderr == float(w.std(ddof=1) / math.sqrt(w.size))


def test_doubling_budget_halves_squared_stderr():
    """Mean squared-SE ratio over repeated trials sits in the 3/sqrt(R) band.

    The standard error scales like budget^{-1/2}, so doubling the budget
    multiplies the squared standard error by 1/2 on average.  A single
    trial's ratio fluctuates beyond the band for heavy-tailed integrands,
    so the check averages over 50 independent trials.
    """
    law = ec.GaussianLaw(0.3)
    R, trials = 50_000, 50
    ratios = []
    for t in range(trials):
        lo = SamplingMoments(gaussian_sampler(law), budget=R,
                             seed=derive_seed(123, t, 1))
        hi = SamplingMoments(gaussian_sampler(law), budget=2 * R,
                             seed=derive_seed(123, t, 2))
        se_lo = lo.covariance_estimate(ec.p, ec.pi1).stderr
        se_hi = hi.covariance_estimate(ec.p, ec.pi1).stderr
        ratios.append((se_hi / se_lo) ** 2)
    mean_ratio = float(np.mean(ratios))
    band = 3.0 / math.sqrt(R)
    assert 0.5 * (1.0 - band) <= mean_ratio <= 0.5 * (1.0 + band)


# -------------------------------------------------- asymptotic_variance

def test_asymptotic_variance_of_constant_influence_is_zero():
    e = ec.constant_expansion(3.0)
    assert ec.asymptotic_variance(e, ec.GaussianLaw(0.2)) == 0.0


def test_asymptotic_variance_of_projection_is_one():
    e = ec.from_mean(ec.pi1, 0.0)
    assert ec.asymptotic_variance(e, ec.GaussianLaw(0.7)) == pytest.approx(1.0, rel=1e-14)


def test_asymptotic_variance_of_correlation_expansion():
    law = ec.GaussianLaw(0.5)
    e = ec.correlation_expansion(law.bivariate_moments())
    got = ec.asymptotic_variance(e, law)
    assert got == pytest.approx(0.5625, rel=1e-12)
