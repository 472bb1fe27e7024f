"""Tests for G_n evaluation, the covariance functional, and moment oracles."""

import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empcalc as ec
from empcalc.empirical import (_CHUNK, QUADRATURE_POINTS, QUADRATURE_RTOL, CovarianceMatrix,
                               SamplingMoments, _coefficients)
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
    with pytest.raises(ec.EvaluationError, match=r"^non-finite mean for pi1$"):
        ec.gn_eval(s, ec.pi1, float("nan"))


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
    assert law.covariance_estimate(c, c).value == 0.0


def test_gamma_cross_term_vanishes_at_zero_correlation():
    law = ec.GaussianLaw(0.0)
    assert law.covariance_estimate(ec.pi1, ec.pi2).value == 0.0


def test_gamma_unit_variance_of_standardized_coordinate():
    for law in (ec.GaussianLaw(0.4), ec.IndependentLaw("uniform_std", "rademacher")):
        assert law.covariance_estimate(ec.pi1, ec.pi1).value == pytest.approx(1.0, rel=1e-14)
        assert law.covariance_estimate(ec.pi2, ec.pi2).value == pytest.approx(1.0, rel=1e-14)


def test_gamma_estimate_reports_method():
    law = ec.GaussianLaw(0.5)
    est = law.covariance_estimate(ec.pi1, ec.pi2)
    assert est.method == "exact"
    assert est.stderr == 0.0
    assert est.value == pytest.approx(0.5, rel=1e-14)


def test_gamma_monte_carlo_tracks_exact():
    law = ec.GaussianLaw(0.5)
    mc = SamplingMoments(law.sample, budget=200_000, seed=7)
    est = mc.covariance_estimate(ec.pi1, ec.pi2)
    assert est.method == "monte_carlo"
    assert est.stderr > 0.0
    assert abs(est.value - 0.5) < 4.0 * est.stderr + 1e-3


def test_gamma_nonpolynomial_is_integrated_on_the_gauss_rules():
    law = ec.GaussianLaw(0.0)
    f = ec.StatFunction(lambda x, y: np.sin(np.asarray(x, dtype=float)), label="sin(x)")
    est = law.covariance_estimate(f, f)
    assert est.method == "quadrature"
    # Var sin(X) under N(0,1): E sin^2 X = (1 - e^-2)/2, and E sin X = 0
    assert est.value == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), abs=1e-13)
    assert 0.0 <= est.stderr <= 1e-13


def test_gamma_moment_divergence_message():
    law = ec.GaussianLaw(0.0)
    bad = ec.StatFunction(
        lambda x, y: np.where(np.abs(np.asarray(x)) > 1.0, np.inf, 0.0),
        label="spike")
    with pytest.raises(ec.MomentError, match="moment does not exist under this law"):
        law.covariance_estimate(bad, bad)


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
        gfg = law.covariance_estimate(f, g).value
        gff = law.covariance_estimate(f, f).value
        ggg = law.covariance_estimate(g, g).value
        assert gfg * gfg <= gff * ggg + 1e-9


@settings(max_examples=30)
@given(st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
def test_cauchy_schwarz_gaussian(rho):
    law = ec.GaussianLaw(rho)
    fams = [ec.pi1, ec.pi2, ec.p, ec.pi1**2 - 1.0, ec.pi1 * ec.pi2 - rho]
    for f in fams:
        for g in fams:
            gfg = law.covariance_estimate(f, g).value
            gff, ggg = (law.covariance_estimate(h, h).value for h in (f, g))
            assert gfg * gfg <= gff * ggg + 1e-9


# ----------------------------------------------------------- gamma_matrix

def test_gamma_matrix_single_function():
    m = ec.gamma_matrix([ec.pi1], ec.GaussianLaw(0.2))
    np.testing.assert_allclose(m.entries, [[1.0]], rtol=1e-14)
    assert m.labels == ("pi1",)
    with pytest.raises(ec.MomentError, match=r"^gamma_matrix needs at least one function$"):
        ec.gamma_matrix([], ec.GaussianLaw(0.2))


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
    m = ec.gamma_matrix(fs, SamplingMoments(law.sample, budget=50_000, seed=5))
    assert m.method == "monte_carlo"
    assert m.min_eigenvalue >= -1e-10
    np.testing.assert_allclose(m.entries, m.entries.T, rtol=0, atol=0)


def test_gamma_matrix_error_names_the_pair():
    law = ec.GaussianLaw(0.0)
    bad = ec.StatFunction(
        lambda x, y: np.where(np.abs(np.asarray(x)) > 1.0, np.nan, 0.0),
        label="hole")
    with pytest.raises(ec.MomentError, match=(
            r"^moment does not exist under this law at requested precision "
            r"\(pi1\*hole: non-finite at an atom\)$")):
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


@pytest.mark.parametrize("make, f, method", [
    (lambda: ec.GaussianLaw(0.5), ec.p, "exact"),
    (lambda: ec.GaussianLaw(0.5), COS_PI1, "quadrature"),
    (lambda: ec.DiscreteLaw([0.1, 1.3, -0.7], [1.0, -0.4, 0.3], [0.2, 0.3, 0.5]), COS_PI1,
     "exact"),
    (lambda: SamplingMoments(ec.GaussianLaw(0.5).sample, budget=1000), ec.p, "monte_carlo"),
    (lambda: SamplingMoments(ec.GaussianLaw(0.5).sample, budget=1000), COS_PI1, "monte_carlo"),
], ids=["gaussian-polynomial", "gaussian-cos", "discrete-cos", "sampling-polynomial",
        "sampling-cos"])
def test_each_request_names_its_oracles_route(monkeypatch, make, f, method):
    oracle = make()
    built = []
    if isinstance(oracle, ec.GaussianLaw):
        rule = oracle._rule
        monkeypatch.setattr(oracle, "_rule", lambda m: built.append(m) or rule(m))
    for fs in ((ec.pi1, f), (f,), (f, ec.pi1)):
        value, error, got = oracle._gamma(fs)
        assert got == method and value.shape == error.shape == (len(fs), len(fs))
        assert (error == 0.0).all() if method == "exact" else (error >= 0.0).all()
    assert oracle.covariance_estimate(f, f).method == method
    assert ec.gamma_matrix([ec.pi1, f], oracle).method == method
    # a Gaussian law builds its two Gauss rules once, on the first request that needs them
    assert built == (list(QUADRATURE_POINTS) if method == "quadrature" else [])


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


@pytest.mark.parametrize("law", [ec.GaussianLaw(0.4), exact_laws()[-1]],
                         ids=["gaussian", "discrete"])
def test_gamma_matrix_takes_each_mean_once(monkeypatch, law):
    calls = count_expectations(monkeypatch, law)
    ec.gamma_matrix(FAMILY, law)
    # nothing goes through expectation(): a polynomial law looks its means up
    # among the raw moments of Sigma, a discrete law centres its atom values
    assert calls == []


def test_exact_variance_takes_the_mean_once(monkeypatch):
    for law in (ec.GaussianLaw(0.4), exact_laws()[-1]):
        calls = count_expectations(monkeypatch, law)
        law.covariance_estimate(ec.p, ec.p)
        assert calls == []  # the mean is a raw moment or the atoms' centre


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


def test_sampling_gamma_matrix_evaluates_each_function_twice_per_chunk():
    # once for the means, once for the centred products: 2k per chunk, not k(k+1)/2 + k
    mc = SamplingMoments(ec.GaussianLaw(0.5).sample, budget=_CHUNK + 1000, seed=3)
    calls = []
    ec.gamma_matrix([counting(f, calls) for f in FAMILY], mc)
    assert sorted(calls) == sorted([f.label for f in FAMILY] * 4)
    calls.clear()
    f = counting(ec.p, calls)
    mc.covariance_estimate(f, f)
    assert calls == ["p"] * 4


def centred_gram(law, fs):
    """The discrete route's Gamma: (V_c sqrt(w)) (V_c sqrt(w))^T, each row of
    V = f_i on the atoms less its weighted mean."""
    v = np.array([f(law.atom_xs, law.atom_ys) for f in fs])
    a = (v - (v @ law.atom_weights)[:, None]) * np.sqrt(law.atom_weights)
    return a @ a.T


def reference_covariance(oracle, f, g):
    """Gamma(f, g) computed pair by pair, each function integrated afresh."""
    return oracle.expectation(f * g) - oracle.expectation(f) * oracle.expectation(g)


def pairwise_matrix(fs, oracle):
    k = len(fs)
    return np.array([[reference_covariance(oracle, fs[min(i, j)], fs[max(i, j)])
                      for j in range(k)] for i in range(k)])


def assert_gamma_matrix_matches_pairwise(fs, oracle):
    assert ec.gamma_matrix(fs, oracle).entries.tobytes() == pairwise_matrix(fs, oracle).tobytes()


@pytest.mark.parametrize("index", range(4), ids=["gaussian", "independent", "mixture", "discrete"])
def test_gamma_matrix_bits_equal_pairwise_covariances(index):
    law = exact_laws()[index]
    if isinstance(law, ec.DiscreteLaw):
        # one centred Gram product, whose entries hold the bits of that
        # product, not of 1-by-1 products, which BLAS sums in another order;
        # it is within round-off of E[fg] - E[f]E[g] pair by pair
        got = ec.gamma_matrix(FAMILY, law).entries
        assert got.tobytes() == centred_gram(law, FAMILY).tobytes()
        want = pairwise_matrix(FAMILY, law)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    else:  # a monomial family selects entries of Sigma: the pairwise bits
        assert_gamma_matrix_matches_pairwise(FAMILY, law)


@pytest.mark.parametrize("index", range(5),
                         ids=["gaussian", "independent", "mixture", "discrete", "sampling"])
def test_covariance_estimate_is_an_entry_of_the_gamma_matrix(index):
    # one request shape: Gamma(f, g) is entry [0, 1] of Gamma_F for F = (f, g),
    # and Gamma(f, f) the 1-by-1 Gamma_F, bit for bit with the same provenance
    # and the route's: exact for polynomials and on atoms, else the Gauss rules
    # of a continuous law, whose gap is the stderr, or a bare sampler's batch
    oracle = (exact_laws() + [SamplingMoments(ec.GaussianLaw(0.5).sample, budget=5000)])[index]
    fs = FAMILY + [COS_PI1, 2.0 * ec.pi1 ** 3 - ec.p + 1.0]
    for f in fs:
        for g in fs:
            est = oracle.covariance_estimate(f, g)
            m = ec.gamma_matrix([f] if g is f else [f, g], oracle)
            assert est.value.hex() == m.entries[0, -1].hex(), (f.label, g.label)
            polynomial = f.poly is not None and g.poly is not None
            want = ("monte_carlo" if index == 4 else "exact" if index == 3 or polynomial
                    else "quadrature")
            assert est.method == m.method == want, (f.label, g.label)
            if want == "exact":
                assert est.stderr == 0.0
            elif want == "quadrature":
                assert 0.0 <= est.stderr <= QUADRATURE_RTOL * max(1.0, np.abs(m.entries).max())
            else:
                assert est.stderr > 0.0


def test_shifted_discrete_gamma_is_accurate():
    # CI's 5-atom law shifted x + 1e4, y - 1e4: E[fg] - E[f]E[g] would cancel
    # terms of 1e16 to leave entries of 1e8, a relative error near 1e-8;
    # centred atom values leave round-off of the entries' own size
    from fractions import Fraction
    xs = [x + 1e4 for x in (0.1, 1.3, -0.7, 2.2, 0.5)]
    ys = [y - 1e4 for y in (1.0, -0.4, 0.3, 0.9, -1.1)]
    law = ec.DiscreteLaw(xs, ys, [0.1, 0.2, 0.3, 0.25, 0.15])
    w = [Fraction(v) for v in law.atom_weights]
    w = [v / sum(w) for v in w]
    atoms = [(Fraction(x), Fraction(y)) for x, y in zip(xs, ys)]
    exact_fs = [lambda x, y: x, lambda x, y: y, lambda x, y: x * y,
                lambda x, y: x * x, lambda x, y: y * y]
    vals = [[f(x, y) for x, y in atoms] for f in exact_fs]
    centred = [[v - sum(a * b for a, b in zip(w, row)) for v in row] for row in vals]
    want = np.array([[float(sum(a * b * c for a, b, c in zip(w, ci, cj))) for cj in centred]
                     for ci in centred])
    got = np.array([[law.covariance_estimate(FAMILY[min(i, j)], FAMILY[max(i, j)]).value
                     for j in range(5)] for i in range(5)])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the k-by-k product gamma_matrix takes; the whole family's Gamma has rank 4
    # (5 atoms), and at entries of 6e8 round-off alone breaks the absolute PSD
    # floor, so gamma_matrix itself is asked for the well-conditioned (p, pi1^2, pi2^2)
    got = law._gamma(FAMILY)[0]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    got = ec.gamma_matrix(FAMILY[2:], law).entries
    assert np.abs(got - want[2:, 2:]).max() <= 1e-12 * np.abs(want).max()


def fsum_covariance(s, f, g):
    """Gamma(f, g) on the batch ``s`` and its stderr, two-pass with math.fsum:
    the mean of each function, then the products w of centred values."""
    fv, gv = f(s.xs, s.ys), g(s.xs, s.ys)
    r = fv.size
    w = (fv - math.fsum(fv) / r) * (gv - math.fsum(gv) / r)
    return (math.fsum(w) / (r - 1),
            math.sqrt(math.fsum((w - math.fsum(w) / r) ** 2) / (r - 1)) / math.sqrt(r))


def test_sampling_gamma_matrix_bits_equal_pairwise_covariances():
    # three chunks, the last one short
    mc = SamplingMoments(ec.GaussianLaw(0.5).sample, budget=2 * _CHUNK + 3000)
    fs = FAMILY[:3] + [COS_PI1] + FAMILY[3:]
    got = ec.gamma_matrix(fs, mc).entries
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            assert got[i, j].hex() == mc.covariance_estimate(f, g).value.hex(), (f.label, g.label)
            # within round-off of the exact two-pass value, on the Cauchy-Schwarz scale
            want = fsum_covariance(mc.batch(), f, g)[0]
            assert abs(got[i, j] - want) <= 1e-14 * math.sqrt(got[i, i] * got[j, j])


def test_gamma_matrix_names_the_first_failing_pair_on_both_routes():
    log_x = ec.StatFunction(lambda x, y: np.log(x), "log(x)")
    fs = [ec.pi1, ec.p, log_x, ec.pi2]
    discrete = ec.DiscreteLaw([0.0, 1.3, -0.7], [1.0, -0.4, 0.3], [0.2, 0.3, 0.5])
    mc = SamplingMoments(ec.GaussianLaw(0.5).sample, budget=1000, seed=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ec.MomentError, match=(
                r"^moment does not exist under this law at requested precision "
                r"\(pi1\*log\(x\): non-finite at an atom\)$")):
            ec.gamma_matrix(fs, discrete)
        with pytest.raises(ec.MomentError, match=(
                r"^moment does not exist under this law at requested precision "
                r"\(log\(x\): non-finite draw\)$")):
            ec.gamma_matrix(fs, mc)


def test_a_covariance_fails_when_its_pairs_gamma_matrix_does():
    # Gamma(pi1, g) is an entry of the Gamma_F of (pi1, g), so it fails with
    # Gamma(g, g), here g^2 overflowing at an atom, and gamma_matrix raises the same error
    law = ec.DiscreteLaw([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.25, 0.5, 0.25])
    g = ec.StatFunction(lambda x, y: np.where(x == 0.0, 1e200, 0.0) + 0.0 * y, "g")
    message = r"this law at requested precision \(g\*g: non-finite at an atom\)$"
    with np.errstate(over="ignore"):
        with pytest.raises(ec.MomentError, match=r"^moment does not exist under " + message):
            law.covariance_estimate(ec.pi1, g)
        with pytest.raises(ec.MomentError, match=r"^moment does not exist under " + message):
            ec.gamma_matrix([ec.pi1, g], law)


LOG_X = ec.StatFunction(lambda x, y: np.log(x), "log(x)")
JUMP = ec.StatFunction(lambda x, y: (x > 0.3) + 0.0 * y, "1{pi1 > 0.3}")
# each route with a family it integrates, and a function that fails it
FAILING_ROUTES = {
    "polynomial": (lambda: ec.GaussianLaw(0.5), [ec.pi1, ec.pi2], ec.pi1 ** 200,
                   "raw moment (400,0)"),
    "gauss-rules": (lambda: ec.GaussianLaw(0.5), [ec.pi1, COS_PI1], JUMP,
                    "the 48- and 96-point Gauss rules differ by"),
    "discrete": (lambda: ec.DiscreteLaw([0.0, 1.3, -0.7], [1.0, -0.4, 0.3], [0.2, 0.3, 0.5]),
                 [ec.pi1, COS_PI1], LOG_X, "non-finite at an atom"),
    "sampling": (lambda: SamplingMoments(ec.GaussianLaw(0.5).sample, budget=1000, seed=3),
                 [ec.pi1, COS_PI1], LOG_X, "non-finite draw"),
}


@pytest.mark.parametrize("make, good, bad, reason", FAILING_ROUTES.values(),
                         ids=FAILING_ROUTES.keys())
def test_gamma_matrix_makes_one_request_failing_or_not(monkeypatch, make, good, bad, reason):
    oracle, calls = make(), []
    gamma = oracle._gamma
    monkeypatch.setattr(oracle, "_gamma", lambda fs: calls.append(len(fs)) or gamma(fs))
    ec.gamma_matrix(good, oracle)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ec.MomentError, match=re.escape(reason)):
            ec.gamma_matrix([ec.pi1, ec.p, bad, ec.pi2], oracle)
    assert calls == [2, 4]


@pytest.mark.parametrize("make, good, bad, reason", FAILING_ROUTES.values(),
                         ids=FAILING_ROUTES.keys())
def test_gamma_matrix_words_a_failure_as_covariance_estimate_does(make, good, bad, reason):
    oracle = make()
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ec.MomentError, match=re.escape(reason)) as whole:
            ec.gamma_matrix([ec.pi1, bad], oracle)
        with pytest.raises(ec.MomentError) as pair:
            oracle.covariance_estimate(ec.pi1, bad)
    assert str(whole.value) == str(pair.value)


def test_sampling_gamma_matrix_memory_does_not_grow_with_the_budget():
    fs = [ec.StatFunction(lambda x, y, a=a: np.cos(a * x), f"cos({a:g}*pi1)") + 0 * ec.pi2
          for a in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)]
    peaks = []
    for budget in (250_000, 1_000_000):
        mc = SamplingMoments(ec.GaussianLaw(0.5).sample, budget=budget, seed=11)
        mc.batch()
        tracemalloc.start()
        try:
            ec.gamma_matrix(fs, mc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a chunk's centred values and evaluations, whatever the batch's length
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks


# ------------------------------------------------------- CovarianceMatrix

def test_covariance_matrix_rejects_asymmetry():
    with pytest.raises(ec.MomentError, match="asymmetric"):
        CovarianceMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]), ("a", "b"))


def test_covariance_matrix_rejects_a_wrong_shape_or_label_count():
    with pytest.raises(ec.MomentError,
                       match=r"^covariance matrix must be square, got shape \(2, 3\)$"):
        CovarianceMatrix(np.zeros((2, 3)), ("a", "b"))
    with pytest.raises(ec.MomentError, match=r"^label count does not match matrix size$"):
        CovarianceMatrix(np.eye(2), ("a",))


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
    assert a.covariance_estimate(ec.p, ec.pi1).value != b.covariance_estimate(ec.p, ec.pi1).value


def test_sampling_moments_rejects_tiny_budget():
    law = ec.GaussianLaw(0.0)
    with pytest.raises(ec.MomentError):
        SamplingMoments(gaussian_sampler(law), budget=1, seed=0)


@pytest.mark.parametrize("budget, seed, message", [
    (10, -1, r"^sampling needs budget >= 2, seed >= 0, got 10, -1$"),
    (2.5, 0, r"^sampling budget and seed must be integers, got 2\.5 and 0$"),
    (10, 1.5, r"^sampling budget and seed must be integers, got 10 and 1\.5$"),
])
def test_sampling_moments_rejects_a_bad_budget_or_seed_before_any_draw(budget, seed, message):
    # a negative seed used to fail only at the first draw, and 2.5 and 1.5 were truncated
    with pytest.raises(ec.MomentError, match=message):
        SamplingMoments(ec.GaussianLaw(0.0).sample, budget=budget, seed=seed)


def test_sampling_moments_takes_integer_like_budget_and_seed():
    mc = SamplingMoments(ec.GaussianLaw(0.0).sample, budget=np.int64(10), seed=np.uint8(3))
    assert (type(mc.budget), type(mc.seed)) == (int, int)
    assert mc.batch().n == 10


def test_stderr_is_the_standard_deviation_of_the_products_over_sqrt_budget():
    law = ec.GaussianLaw(0.6)
    mc = SamplingMoments(gaussian_sampler(law), budget=1_000_000, seed=123)
    s = mc.batch()
    cos_pi1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")
    for f, g in ((ec.p, ec.pi1), (ec.pi2, ec.pi2), (cos_pi1, ec.p)):
        value, stderr = fsum_covariance(s, f, g)
        est = mc.covariance_estimate(f, g)
        scale = math.sqrt(mc.covariance_estimate(f, f).value * mc.covariance_estimate(g, g).value)
        assert abs(est.value - value) <= 1e-14 * scale
        assert abs(est.stderr - stderr) <= 1e-14 * stderr


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


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("index", range(len(exact_laws())))
def test_a_zero_slope_is_not_integrated(zero, index):
    # a base function of slope +-0.0 is neither evaluated nor routed: a
    # non-polynomial one leaves a polynomial law on its exact route
    law = exact_laws()[index]
    calls = []
    unused = ec.StatFunction(lambda x, y: calls.append(1) or np.cos(x) + 0.0 * y, "unused")
    e = ec.delta(lambda a, b: 2.0 * a, lambda a, b: (2.0, zero),
                 ec.from_mean(ec.p, law.expectation(ec.p)), ec.from_mean(unused, 0.0))
    assert [s for s, _ in e.terms] == [2.0, zero]
    est = ec.asymptotic_variance_estimate(e, law)
    assert (est.value, est.stderr, est.method) == (
        4.0 * law.covariance_estimate(ec.p, ec.p).value, 0.0, "exact")
    assert calls == []


@pytest.mark.parametrize("index", range(len(exact_laws()) + 1))
def test_an_expansion_without_a_non_zero_slope_integrates_nothing(index):
    # its variance is an exact 0.0 on every oracle, and nothing is integrated:
    # a bare sampling oracle draws no batch
    draws = []

    def sampler(n, rng):
        draws.append(n)
        return ec.GaussianLaw(0.5).sample(n, rng)

    oracle = exact_laws()[index] if index < len(exact_laws()) else SamplingMoments(sampler)
    e = ec.delta(lambda a: 7.0, lambda a: (0.0,), ec.from_mean(ec.p, 0.5))
    assert [s for s, _ in e.terms] == [0.0]
    assert ec.asymptotic_variance_estimate(e, oracle) == (0.0, 0.0, "exact")
    assert draws == []
    assert "influence" not in vars(e)


@pytest.mark.parametrize("index", range(len(exact_laws())))
def test_merged_terms_give_the_variance_of_the_unmerged_sum(index):
    law = exact_laws()[index]
    f, g = ec.p, ec.pi1 ** 2 - ec.pi2
    a, b = (ec.from_mean(h, law.expectation(h)) for h in (f, g))
    e = ec.delta(lambda x, y, z: x * y - 3.0 * z, lambda x, y, z: (y, x, -3.0), a, b, a)
    assert [h for _, h in e.terms] == [f, g]  # a's two terms merge into one
    unmerged = b.value * f + a.value * g + (-3.0) * f
    assert ec.asymptotic_variance(e, law) == pytest.approx(
        law.covariance_estimate(unmerged, unmerged).value, rel=1e-12)


def test_sampling_expansion_variance_is_the_covariance_of_its_influence():
    # the sampling oracle integrates the influence h itself, not s^T Gamma_F s:
    # the variance is Gamma(h, h) on the batch, with the stderr of the sum
    law = ec.GaussianLaw(0.5)
    e = ec.correlation_expansion(law.bivariate_moments())
    mc = SamplingMoments(law.sample, budget=20_000, seed=11)
    est = ec.asymptotic_variance_estimate(e, mc)
    want = mc.covariance_estimate(e.influence, e.influence)
    assert (est.value.hex(), est.stderr.hex(), est.method) == (
        want.value.hex(), want.stderr.hex(), "monte_carlo")
    assert est.stderr > 0.0


def test_quadrature_route_reports_the_gap_of_the_sum():
    # no exact route for cos(pi1) under a Gaussian law: the Gauss rules give
    # s^T Gamma_F s, and the gap of the sum; Var cos(Z) = (1 - e^-1)^2 / 2
    e = ec.delta(lambda a, b: 2.0 * a - b, lambda a, b: (2.0, -1.0),
                 ec.from_mean(COS_PI1, math.exp(-0.5)), ec.from_mean(ec.pi1, 0.0))
    est = ec.asymptotic_variance_estimate(e, ec.GaussianLaw(0.5))
    assert est.method == "quadrature"
    assert 0.0 <= est.stderr <= 1e-12
    assert est.value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)) ** 2 + 1.0, abs=1e-13)


def test_polynomial_gamma_about_the_mean_is_central_moment_lookups():
    # uv, u^2 and v^2, built at the origin, under a shifted mixture: the law
    # integrates them about its mean, where each expectation and each Gamma_F
    # entry is read from the moments about the mean that bivariate_moments()
    # looked up, so a shift of 1e4 cancels nothing
    s = 1e4
    law = ec.MixtureLaw([ec.DiscreteLaw([x + s for x in (0.1, 1.3, -0.7)], [y - s for y in (1.0, -0.4, 0.3)],
                                        [0.2, 0.5, 0.3]),
                         ec.DiscreteLaw([2.0 + s, -1.0 + s], [0.5 - s, 1.5 - s], [0.5, 0.5])],
                        [0.6, 0.4])
    m = law.bivariate_moments()
    u, v = ec.pi1 - m.mu_x, ec.pi2 - m.mu_y
    fs = [u * v, u ** 2, v ** 2]
    assert [law.expectation(f) for f in fs] == [m.cov_xy, m.var_x, m.var_y]
    c, vx, vy = m.cov_xy, m.var_x, m.var_y
    want = [[m.m22 - c * c, m.m31 - c * vx, m.m13 - c * vy],
            [m.m31 - vx * c, m.m40 - vx * vx, m.m22 - vx * vy],
            [m.m13 - vy * c, m.m22 - vy * vx, m.m04 - vy * vy]]
    assert ec.gamma_matrix(fs, law).entries.tolist() == want
    # pi1 is integrated about the same mean
    mixed = ec.gamma_matrix([fs[0], ec.pi1], law).entries
    assert mixed[1, 1] == pytest.approx(vx, rel=1e-12)
    assert mixed[0, 1] == pytest.approx(law.moment_about(2, 1, m.mu_x, m.mu_y), rel=1e-12)


def test_coefficients_are_the_polys_on_their_non_constant_monomials():
    # C, filled term by term, holds the bits of each poly's entry on the basis
    # of non-constant monomials in order of first appearance
    fs = [ec.pi1 + 2.0, 3.0 * ec.p - ec.pi2 ** 2, ec.pi1 * ec.pi2 + ec.pi1, ec.constant(4.0), ec.pi2]
    basis, c = _coefficients(fs, (0.0, 0.0))
    assert basis == list(dict.fromkeys(k for f in fs for k in f.poly if k != (0, 0)))
    assert c.tolist() == [[f.poly.get(k, 0.0) for k in basis] for f in fs]
