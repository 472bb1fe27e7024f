"""Tests for synthetic bivariate laws: sampling, exact moments, and the
JSON spec round trip.

scipy is used here purely as an independent oracle for marginal moments
and distribution functions; the package itself does not depend on it.
"""

import cmath
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings, strategies as st

import empcalc as ec
from empcalc.laws import MARGINALS, _Bins, get_marginal
from empcalc.streams import BlockStreams, derive_rng


# ------------------------------------------------------------- marginals

def test_standard_normal_moments_match_scipy():
    m = get_marginal("standard_normal")
    for k in range(9):
        assert m.raw_moment(k) == pytest.approx(sps.norm.moment(k), abs=1e-10), k


def test_uniform_std_moments_match_scipy():
    m = get_marginal("uniform_std")
    half = math.sqrt(3.0)
    ref = sps.uniform(loc=-half, scale=2 * half)
    for k in range(9):
        # scipy integrates numerically; it is the fuzzier side of this check
        assert m.raw_moment(k) == pytest.approx(ref.moment(k), rel=1e-9, abs=1e-9), k
    # spot values: 3^(k/2)/(k+1) for even k
    assert m.raw_moment(2) == pytest.approx(1.0, rel=1e-15)
    assert m.raw_moment(4) == pytest.approx(1.8, rel=1e-15)
    assert m.raw_moment(8) == pytest.approx(9.0, rel=1e-15)


def test_exponential_std_moments_match_scipy():
    m = get_marginal("exponential_std")
    ref = sps.expon(loc=-1.0)
    for k in range(9):
        # scipy's higher shifted moments come from numeric integration
        assert m.raw_moment(k) == pytest.approx(ref.moment(k), rel=1e-6, abs=1e-9), k
    # E[(X-1)^k] for X ~ Exp(1) is the number of derangements of k items
    assert [m.raw_moment(k) for k in range(7)] == [1, 0, 1, 2, 9, 44, 265]


def test_rademacher_moments():
    m = get_marginal("rademacher")
    for k in range(9):
        assert m.raw_moment(k) == (1.0 if k % 2 == 0 else 0.0), k


def test_marginal_draws_live_on_support():
    rng = derive_rng(55)
    n = 20_000
    rad = ec.IndependentLaw("rademacher", "rademacher").sample(n, rng).xs
    assert set(np.unique(rad)) <= {-1.0, 1.0}
    uni = ec.IndependentLaw("uniform_std", "uniform_std").sample(n, rng).xs
    assert uni.min() >= -math.sqrt(3.0) and uni.max() <= math.sqrt(3.0)
    expo = ec.IndependentLaw("exponential_std", "exponential_std").sample(n, rng).xs
    assert expo.min() >= -1.0


def test_marginal_draws_match_reference_distribution():
    # KS against scipy CDFs; 1.63/sqrt(m) is the asymptotic 1% critical value
    n = 50_000
    crit = 1.63 / math.sqrt(n)
    refs = {
        "standard_normal": sps.norm.cdf,
        "uniform_std": sps.uniform(loc=-math.sqrt(3.0), scale=2 * math.sqrt(3.0)).cdf,
        "exponential_std": sps.expon(loc=-1.0).cdf,
    }
    for i, (name, cdf) in enumerate(refs.items()):
        draws = ec.IndependentLaw(name, name).sample(n, derive_rng(88, i)).xs
        assert ec.ks_statistic(draws, cdf) < crit, name


def _reference_draw(law, n, rng):
    """Each law's draws written out one sample at a time: the reference the
    block sampler must match bit for bit."""
    def normal(k):
        return rng.standard_normal(k)

    marginal = {"standard_normal": normal,
                "uniform_std": lambda k: (rng.random(k) - 0.5) * math.sqrt(12.0),
                "exponential_std": lambda k: -np.log1p(-rng.random(k)) - 1.0,
                "rademacher": lambda k: np.where(rng.random(k) < 0.5, -1.0, 1.0)}

    def draw(law, k):
        if law.kind == "gaussian":
            z1 = normal(k)
            z2 = normal(k)
            return z1, law.rho_param * z1 + math.sqrt(1.0 - law.rho_param ** 2) * z2
        if law.kind == "independent":
            xs = marginal[law.marginal_x.name](k)
            return xs, marginal[law.marginal_y.name](k)
        idx = np.searchsorted(law._bins.cut, rng.random(k), side="right")
        if law.kind == "discrete":
            return law.atom_xs[idx], law.atom_ys[idx]
        xs, ys = np.empty(k), np.empty(k)
        for c, comp in enumerate(law.components):
            mask = idx == c
            if mask.any():
                xs[mask], ys[mask] = draw(comp, int(mask.sum()))
        return xs, ys

    return draw(law, n)


# 8 atoms, so a guide table of 32 cells; the cuts 0.2 and 0.21 share cell 6
EIGHT_ATOMS = ec.DiscreteLaw([0.1, 1.3, -0.7, 2.2, 0.5, -1.4, 0.9, -0.2],
                             [1.0, -0.4, 0.3, 0.9, -1.1, 0.6, -0.8, 1.7],
                             [0.2, 0.01, 0.01, 0.15, 0.2, 0.13, 0.2, 0.1])


def _nested_mixture():
    return ec.MixtureLaw([ec.GaussianLaw(0.8),
                          ec.MixtureLaw([ec.IndependentLaw("rademacher", "uniform_std"),
                                         ec.DiscreteLaw([0.0, 2.0], [1.0, -1.0], [0.3, 0.7])],
                                        [0.5, 0.5])],
                         [0.6, 0.4])


def test_samples_are_bit_identical_to_reference_draws():
    names = sorted(MARGINALS)
    laws = [ec.GaussianLaw(0.45), ec.GaussianLaw(-0.9)]
    laws += [ec.IndependentLaw(a, b) for a in names for b in names]
    laws.append(_nested_mixture())
    laws.append(ec.DiscreteLaw([0.0, 1.0, -2.0], [1.0, -1.0, 0.5], [0.2, 0.3, 0.5]))
    for law in laws:
        # 100_001 for the mixture: one long one-row block, as a Monte Carlo fallback batch
        for n in (2, 3, 100, 101) + ((100_001,) if law.kind == "mixture" else ()):
            s = law.sample(n, derive_rng(19, n))
            xs, ys = _reference_draw(law, n, derive_rng(19, n))
            assert np.array_equal(s.xs, xs) and np.array_equal(s.ys, ys), (law.describe(), n)
    for name in names:
        for n in (1, 7, 1000):
            # the x column alone; n = 1 is below a PairedSample's minimum
            law = ec.IndependentLaw(name, name)
            assert np.array_equal(law.draw_block([derive_rng(5, n)], n)[0][0],
                                  _reference_draw(law, n, derive_rng(5, n))[0]), (name, n)


@pytest.mark.parametrize("law", [ec.GaussianLaw(0.45),
                                 ec.IndependentLaw("uniform_std", "exponential_std"),
                                 ec.IndependentLaw("standard_normal", "uniform_std"),
                                 EIGHT_ATOMS,
                                 ec.MixtureLaw([ec.GaussianLaw(0.8), ec.IndependentLaw(
                                     "uniform_std", "exponential_std")], [0.6, 0.4]),
                                 _nested_mixture()],
                         ids=["gaussian", "equal-methods", "mixed-methods", "discrete",
                              "mixture", "nested-mixture"])
def test_block_rows_are_bit_identical_to_reference_draws(law):
    # a leaf block whose methods are one is filled row-major, one Generator
    # call per row on its contiguous sub-block, and atom and component picks
    # go through the guide table: each row of a many-row block must still be
    # its own generator's reference sample, whose picks take searchsorted
    for rows, n in ((2, 1), (3, 2), (5, 37), (4, 513)):
        xs, ys = law.draw_block(BlockStreams(11, rows), n)
        assert xs.shape == ys.shape == (rows, n)
        for r in range(rows):
            want_xs, want_ys = _reference_draw(law, n, derive_rng(11, r))
            assert np.array_equal(xs[r], want_xs) and np.array_equal(ys[r], want_ys), (rows, n, r)


@pytest.mark.parametrize("rng", ["np.random.RandomState(1)", "None", "7"])
def test_sample_and_draw_block_refuse_what_is_not_a_generator(rng):
    # numpy's unbound Generator methods crashed the interpreter on a
    # RandomState or None, so each case runs in a process of its own
    code = f"""
import numpy as np, pytest, empcalc as ec
laws = [ec.GaussianLaw(0.5), ec.IndependentLaw("uniform_std", "exponential_std"),
        ec.MixtureLaw([ec.GaussianLaw(0.8), ec.DiscreteLaw([0.0, 2.0], [1.0, -1.0], [0.3, 0.7])],
                      [0.6, 0.4])]
for law in laws:
    good = np.random.default_rng(1)
    state = good.bit_generator.state
    for call in (lambda: law.sample(10, {rng}), lambda: law.draw_block([good, {rng}], 10)):
        with pytest.raises(ec.InputFormatError, match="^draws need a numpy Generator, got "):
            call()
    assert good.bit_generator.state == state  # refused before any draw
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("law", [ec.GaussianLaw(0.5), ec.IndependentLaw("uniform_std",
                                                                         "exponential_std")],
                         ids=["gaussian", "independent"])
def test_a_large_sample_adopts_its_draw_buffers(law):
    # the raw buffers, 16 bytes a pair, plus the finiteness check's 2: no copy of
    # the batch and no temporary of its size, as a Monte Carlo fallback batch draws
    n = 1_000_000
    tracemalloc.start()
    try:
        s = law.sample(n, derive_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * n + 64 * 1024
    xs, ys = law.draw_block([derive_rng(8)], n)
    assert np.array_equal(s.xs, xs[0]) and np.array_equal(s.ys, ys[0])
    assert not (s.xs.flags.writeable or s.ys.flags.writeable)
    with pytest.raises(ValueError):
        s.xs[0] = 0.0


def test_a_large_mixture_sample_sizes_each_components_buffers_by_its_picks():
    # picks 8 bytes a pair, the components' raw buffers 16 in all, the draws 16,
    # and the scatter's index and mask about 6: buffers sized for every pair
    # in each component peaked at 61.8 bytes a pair
    law = ec.MixtureLaw([ec.GaussianLaw(0.8), ec.IndependentLaw("uniform_std", "exponential_std")],
                        [0.6, 0.4])
    n = 1_000_000
    tracemalloc.start()
    try:
        law.sample(n, derive_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * n


def test_a_mixture_block_holds_one_rows_generator_at_a_time():
    # at n = 2 a generator outweighs its row's pairs: a fill that held every
    # row's generator from its picks to its fills peaked at about 13 MB
    flat = ec.MixtureLaw([ec.GaussianLaw(0.8), ec.IndependentLaw("uniform_std", "exponential_std")],
                         [0.6, 0.4])
    nested = ec.MixtureLaw([ec.GaussianLaw(0.8),
                            ec.MixtureLaw([ec.IndependentLaw("rademacher", "uniform_std"),
                                           ec.DiscreteLaw([0.0, 2.0], [1.0, -1.0], [0.3, 0.7])],
                                          [0.5, 0.5])],
                           [0.6, 0.4])
    for law in (flat, nested):
        streams = BlockStreams(3, 16384)
        tracemalloc.start()
        try:
            law.draw_block(streams, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, law.describe()


def _weights(kind, k, seed):
    """k positive weights of one of four shapes, summing to about 1."""
    rng = np.random.default_rng(seed)
    if kind == "tiny":  # log-uniform down to 1e-300
        w = 10.0 ** -rng.uniform(0.0, 300.0, k)
    elif kind == "crowded":  # runs of 1e-9 weights between ordinary ones
        w = np.where(rng.random(k) < 0.7, 1e-9, rng.random(k) + 0.01)
    else:
        w = rng.random(k) + 1e-3
    w = w / w.sum()
    if kind == "unnormalised":  # as mixture weights: their sum within 1e-12 of 1
        w = w * (1.0 + rng.uniform(-1e-12, 1e-12))
    return w


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 4096), kind=st.sampled_from(["plain", "tiny", "crowded", "unnormalised"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_bin_lookup_is_searchsorted(k, kind, seed):
    w = _weights(kind, k, seed)
    bins = _Bins(w)
    cum = np.cumsum(w)
    cut = bins.cut
    # sorted, ending at 1.0, every interior cut below 1 the cumulative sum itself
    assert cut[-1] == 1.0 and np.all(cut[:-1] <= cut[1:])
    assert np.array_equal(cut[:-1][cum[:-1] < 1.0], cum[:-1][cum[:-1] < 1.0])
    u = np.random.default_rng(seed).random(1000)
    assert np.array_equal(bins(u), cut.searchsorted(u, side="right"))
    g = int(bins._table[0])
    assert g >= 4 * k > g // 2 and g & (g - 1) == 0
    # 0, every cut below 1 and the double just below it, every cell edge k/G, 1 - 2^-53
    edges = np.concatenate([[0.0, 1.0 - 2.0 ** -53], cut[cut < 1.0], np.nextafter(cut, 0.0),
                            np.arange(g) / g])
    assert np.array_equal(bins(edges), cut.searchsorted(edges, side="right"))


def test_a_crowded_cell_takes_searchsorted_for_its_draws_alone():
    bins = EIGHT_ATOMS._bins
    u = derive_rng(4).random(100_000)
    assert np.array_equal(bins(u), bins.cut.searchsorted(u, side="right"))
    g, guide, crowded = bins._table
    assert g == 32 and np.flatnonzero(crowded).tolist() == [6]
    # 16 cells: the cut 0.25 is cell 4's lower edge, not a second cut inside cell 3
    edge = _Bins([0.2, 0.05, 0.75])
    assert edge(u).tolist() == edge.cut.searchsorted(u, side="right").tolist()
    assert edge._table[0] == 16 and edge._table[2] is None


def test_a_mixture_cut_is_sorted_where_its_weights_sum_above_one():
    # within the 1e-12 check, and the second cumulative sum rounds above the last
    law = ec.MixtureLaw([ec.GaussianLaw(0.1), ec.GaussianLaw(0.2), ec.GaussianLaw(0.3)],
                        [0.5, 0.5 + 9e-13, 1e-15])
    assert law._bins.cut.tolist() == [0.5, 1.0, 1.0]
    u = derive_rng(6).random(10_000)
    assert np.array_equal(law._bins(u), (u[:, None] >= np.cumsum(law.weights)).sum(axis=1))


def test_the_guide_table_is_built_on_the_first_draw():
    # a Gauss rule's law of 9216 atoms is integrated, never sampled: no table
    rule = ec.GaussianLaw(0.5)._rule(96)
    assert rule.atom_weights.size == 9216 and rule._bins._table is None
    law = ec.DiscreteLaw([0.0, 1.0, -2.0], [1.0, -1.0, 0.5], [0.2, 0.3, 0.5])
    assert law._bins._table is None
    law.sample(2, derive_rng(1))
    assert law._bins._table is not None


def test_a_large_discrete_sample_peaks_at_26_bytes_a_pair():
    # the raw uniforms, 8 bytes a pair, become the xs; the lookup holds two more
    # 8-byte arrays at a time (scaled uniforms, cells, indices, looked-up cuts),
    # a comparison of 1 and the crowded cell's few indices; then the ys, 8.
    # searchsorted's indices peaked at 24
    n = 1_000_000
    law = ec.DiscreteLaw(EIGHT_ATOMS.atom_xs, EIGHT_ATOMS.atom_ys, EIGHT_ATOMS.atom_weights)
    tracemalloc.start()
    try:
        s = law.sample(n, derive_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * n
    assert np.array_equal(s.xs, _reference_draw(law, n, derive_rng(8))[0])


def test_an_adopted_sample_is_checked_as_a_new_one_is():
    for xs, ys, message in (([1.0, 2.0], [1.0], "differ in length: 2 vs 1"),
                            ([1.0], [1.0], "at least 2 paired observations, got 1"),
                            ([1.0, 2.0, 3.0], [1.0, np.inf, np.nan], "at index 1")):
        for make in (ec.PairedSample, ec.PairedSample._adopt):
            with pytest.raises(ec.InputFormatError, match=message):
                make(np.array(xs), np.array(ys))


def test_unknown_marginal_lists_available_names():
    with pytest.raises(ec.InputFormatError, match="standard_normal"):
        get_marginal("cauchy")


def test_marginal_registry_is_standardized():
    for name, m in MARGINALS.items():
        assert m.raw_moment(0) == 1.0, name
        assert m.raw_moment(1) == pytest.approx(0.0, abs=1e-12), name
        assert m.raw_moment(2) == pytest.approx(1.0, rel=1e-12), name


# ------------------------------------------------------------ GaussianLaw

def test_gaussian_isserlis_textbook_moments():
    # closed forms derivable by hand from the pairing recursion
    rho = 0.3
    law = ec.GaussianLaw(rho)
    assert law.raw_moment(2, 0) == pytest.approx(1.0, rel=1e-14)
    assert law.raw_moment(1, 1) == pytest.approx(rho, rel=1e-14)
    assert law.raw_moment(4, 0) == pytest.approx(3.0, rel=1e-14)
    assert law.raw_moment(2, 2) == pytest.approx(1.0 + 2 * rho**2, rel=1e-14)
    assert law.raw_moment(3, 1) == pytest.approx(3.0 * rho, rel=1e-14)
    assert law.raw_moment(3, 3) == pytest.approx(9 * rho + 6 * rho**3, rel=1e-14)
    assert law.raw_moment(2, 4) == pytest.approx(3.0 + 12 * rho**2, rel=1e-14)
    assert law.raw_moment(5, 1) == pytest.approx(15.0 * rho, rel=1e-14)
    assert law.raw_moment(4, 4) == pytest.approx(
        9.0 + 72 * rho**2 + 24 * rho**4, rel=1e-13)
    # odd total order vanishes
    assert law.raw_moment(2, 1) == 0.0
    assert law.raw_moment(5, 0) == 0.0


def test_gaussian_bivariate_moments():
    law = ec.GaussianLaw(0.5)
    m = law.bivariate_moments()
    assert m.var_x == 1.0 and m.var_y == 1.0
    assert m.cov_xy == pytest.approx(0.5, rel=1e-15)
    assert m.m22 == pytest.approx(1.5, rel=1e-14)
    assert m.m31 == pytest.approx(1.5, rel=1e-14)
    assert m.m13 == pytest.approx(1.5, rel=1e-14)
    assert m.m40 == pytest.approx(3.0, rel=1e-14)
    assert ec.rho_from_moments(law.bivariate_moments()) == pytest.approx(0.5, rel=1e-15)
    # laws of mean exactly 0.0 centre at 0.0, so every central moment is
    # the raw moment itself, bit for bit
    gaussian, independent = law, ec.IndependentLaw("exponential_std", "rademacher")
    for law in (gaussian, independent, ec.MixtureLaw([gaussian, independent], [0.4, 0.6])):
        m = law.bivariate_moments()
        assert m.mu_x == 0.0 and m.mu_y == 0.0
        for field, (i, j) in (("var_x", (2, 0)), ("var_y", (0, 2)), ("cov_xy", (1, 1)),
                              ("m22", (2, 2)), ("m31", (3, 1)), ("m13", (1, 3)),
                              ("m40", (4, 0)), ("m04", (0, 4))):
            assert getattr(m, field) == law.raw_moment(i, j), (law.kind, field)


def test_gaussian_raw_moment_is_iterative():
    # a recursive evaluation overflows Python's stack long before order 3000
    law = ec.GaussianLaw(0.3)
    assert law.raw_moment(3000, 0) == math.inf  # 2999!! overflows a double
    assert law.raw_moment(40, 0) == pytest.approx(sps.norm.moment(40), rel=1e-12)
    assert law.raw_moment(301, 0) == 0.0
    with pytest.raises(ec.MomentError, match="raw moment \\(3000,0\\)"):
        law.expectation(ec.pi1 ** 3000)


def test_gaussian_raw_moment_matches_recursive_memo():
    # the bottom-up table holds the recursion's values, bit for bit; it also
    # fills entries the recursion never reaches, so the memo is compared on
    # the recursion's keys
    law = ec.GaussianLaw(-0.37)
    memo = {(0, 0): 1.0}

    def recursive(i, j):
        if i < 0 or j < 0:
            return 0.0
        if (i, j) not in memo:
            if i > 0:
                memo[(i, j)] = ((i - 1) * recursive(i - 2, j)
                                + law.rho_param * j * recursive(i - 1, j - 1))
            else:
                memo[(i, j)] = (j - 1) * recursive(0, j - 2)
        return memo[(i, j)]

    for i, j in ((9, 7), (12, 0), (0, 11), (4, 4), (25, 13)):
        assert law.raw_moment(i, j) == recursive(i, j)
    assert {key: law._memo[key].hex() for key in memo} == {
        key: value.hex() for key, value in memo.items()}
    # every other entry of the table is the recursion's value too
    assert all(law._memo[key].hex() == recursive(*key).hex() for key in list(law._memo))


_EXPONENT_LAWS = {
    "gaussian": ec.GaussianLaw(0.5),
    "independent": ec.IndependentLaw("exponential_std", "uniform_std"),
    "mixture": ec.MixtureLaw([ec.GaussianLaw(0.5),
                              ec.IndependentLaw("exponential_std", "uniform_std")], [0.5, 0.5]),
    "mixture_with_discrete": ec.MixtureLaw([ec.GaussianLaw(0.5),
                                            ec.DiscreteLaw([1.0, 2.0], [1.0, 1.0], [0.5, 0.5])],
                                           [0.5, 0.5]),
}


@pytest.mark.parametrize("law", _EXPONENT_LAWS.values(), ids=_EXPONENT_LAWS.keys())
def test_a_negative_or_fractional_exponent_is_a_moment_error(law):
    # these gave 0.0, 1.0 (the subfactorial of -1), 0.5, the int 0 from an
    # empty binomial shift, and a bare TypeError
    for call, key in ((lambda: law.raw_moment(-1, 0), "-1,0"),
                      (lambda: law.raw_moment(0, -2), "0,-2"),
                      (lambda: law.raw_moment(1.5, 0), "1.5,0"),
                      (lambda: law.moment_about(-1, 0, 1.0, 0.0), "-1,0"),
                      (lambda: law.moment_about(0, 1.5, 0.5, -0.25), "0,1.5")):
        with pytest.raises(ec.MomentError,
                           match=rf"^moment \({key}\): exponents must be integers >= 0$"):
            call()
    assert law.raw_moment(np.int64(2), np.int64(0)) == law.raw_moment(2, 0)  # numpy ints pass
    # a discrete law alone keeps its exact negative powers of atoms
    assert ec.DiscreteLaw([1.0, 2.0], [1.0, 1.0], [0.5, 0.5]).raw_moment(-1, 0) == 0.75


def test_a_mixture_memo_never_answers_a_float_exponent():
    # 2.0 hashes as 2: once moment_about(2, ...) was memoised, moment_about(2.0, ...)
    # returned its 1.01 instead of the parts' exponent error
    for int_first in (False, True):
        law = ec.MixtureLaw([ec.GaussianLaw(0.5),
                             ec.IndependentLaw("uniform_std", "exponential_std")], [0.5, 0.5])
        if int_first:
            assert law.moment_about(2, 0, 0.1, 0.0) == pytest.approx(1.01, rel=1e-15)
        with pytest.raises(ec.MomentError,
                           match=r"^moment \(2\.0,0\): exponents must be integers >= 0$"):
            law.moment_about(2.0, 0, 0.1, 0.0)
        assert law.moment_about(2, 0, 0.1, 0.0) == pytest.approx(1.01, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_discrete_power_that_is_not_finite_names_its_moment():
    # a negative atom to the 1.5 and a zero atom to the -1 warned from numpy's
    # power, then raised a MomentError that named no exponent
    law = ec.DiscreteLaw([0.0, -1.0, 2.0], [1.0, 1.0, -1.0], [0.25, 0.25, 0.5])
    for i, key in ((1.5, "1.5,0"), (-1, "-1,0")):
        with pytest.raises(ec.MomentError,
                           match=rf"^moment does not exist .* \(moment \({key}\): non-finite at an atom\)$"):
            law.raw_moment(i, 0)
    with pytest.raises(ec.MomentError, match=r"\(moment \(0,-1\): non-finite at an atom\)$"):
        law.moment_about(0, -1, 0.0, 1.0)
    # a natural power that overflows is named the same way
    with pytest.raises(ec.MomentError, match=r"\(moment \(4,0\): non-finite at an atom\)$"):
        ec.DiscreteLaw([1e100, -1.0], [1.0, 1.0], [0.5, 0.5]).raw_moment(4, 0)
    # exact negative integer powers of non-zero atoms stay
    assert law.moment_about(-1, 0, 1.0, 0.0) == 0.25 * -1.0 + 0.25 * -0.5 + 0.5 * 1.0
    assert ec.DiscreteLaw([1.0, -2.0], [1.0, 3.0], [0.5, 0.5]).raw_moment(-1, 2) == 0.5 - 2.25


def test_quadrature_is_one_cached_pair_of_gauss_rules():
    # a family with a non-polynomial function is integrated on the law's
    # 48- and 96-point product rules, built on first use and kept on the law
    law = ec.GaussianLaw(0.5)
    cos_pi1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")
    assert law._gauss_rules is None
    assert law._gamma((ec.pi1, cos_pi1))[2] == "quadrature"
    first = law._gauss_rules
    law.expectation(cos_pi1)
    assert law._gamma((cos_pi1,))[2] == "quadrature"
    assert law._gauss_rules is first
    assert [type(r) for r in first] == [ec.DiscreteLaw] * 2
    assert [r.atom_xs.size for r in first] == [48 ** 2, 96 ** 2]
    other = ec.GaussianLaw(0.5)
    other.expectation(cos_pi1)
    assert other._gauss_rules is not first


def test_dropped_law_frees_its_gauss_rules():
    # the rules hold no reference back to the law, so no reference cycle
    # keeps their atoms waiting for the cyclic collector
    gc.disable()
    try:
        law = ec.GaussianLaw(0.5)
        cos_pi1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")
        law.expectation(cos_pi1)
        fine = law._gauss_rules[1]
        refs = weakref.ref(law), weakref.ref(fine), weakref.ref(fine.atom_xs)
        del law, fine
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


COS_PI1 = ec.StatFunction(lambda x, y: np.cos(x) + 0.0 * y, "cos(pi1)")
COS_PI2 = ec.StatFunction(lambda x, y: 0.0 * x + np.cos(y), "cos(pi2)")


def _exponential_std_cf(t):
    """E exp(i t (E - 1)) for a unit-rate exponential E."""
    return cmath.exp(-1j * t) / (1.0 - 1j * t)


# E cos X and E cos^2 X of each standardized marginal, in closed form
COS_MOMENTS = {
    "standard_normal": (math.exp(-0.5), 0.5 * (1.0 + math.exp(-2.0))),
    "uniform_std": (math.sin(math.sqrt(3.0)) / math.sqrt(3.0),
                    0.5 * (1.0 + math.sin(2.0 * math.sqrt(3.0)) / (2.0 * math.sqrt(3.0)))),
    "exponential_std": (_exponential_std_cf(1.0).real, 0.5 * (1.0 + _exponential_std_cf(2.0).real)),
    "rademacher": (math.cos(1.0), math.cos(1.0) ** 2),
}


def test_gaussian_lemma1_gram_on_the_gauss_rules():
    rho = 0.5
    c, var_cos = -rho * math.exp(-0.5), 0.5 * (1.0 + math.exp(-2.0)) - math.exp(-1.0)
    want = [[1.0, rho, 0.0, 0.0], [rho, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0 + rho * rho, c], [0.0, 0.0, c, var_cos]]
    m = ec.gamma_matrix([ec.pi1, ec.pi2, ec.p, COS_PI1], ec.GaussianLaw(rho))
    assert m.method == "quadrature"
    assert np.abs(m.entries - want).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(COS_MOMENTS))
def test_each_marginals_cos_moments_on_its_rule(name):
    mean, square = COS_MOMENTS[name]
    law = ec.IndependentLaw(name, name)
    assert law.expectation(COS_PI1) == pytest.approx(mean, abs=1e-12)
    est = law.covariance_estimate(COS_PI1, COS_PI1)
    assert est.method == "quadrature"
    assert est.value == pytest.approx(square - mean * mean, abs=1e-12)
    assert 0.0 <= est.stderr <= 1e-12


def test_mixture_integrates_on_the_weighted_union_of_its_components_rules():
    # the mixture of the mc_large_n workload, (pi1, pi2, cos pi1, cos pi2):
    # per component, E f and E fg in closed form, weighted by its part
    law = ec.MixtureLaw([ec.GaussianLaw(0.8), ec.IndependentLaw("uniform_std", "exponential_std")],
                        [0.6, 0.4])
    rho, e = 0.8, math.exp
    cu, cu2 = COS_MOMENTS["uniform_std"]
    ce, ce2 = COS_MOMENTS["exponential_std"]
    y_cos_y = (cmath.exp(-1j) * ((1 - 1j) ** -2 - (1 - 1j) ** -1)).real  # E[(E-1) cos(E-1)]
    gaussian = ([0.0, 0.0, e(-0.5), e(-0.5)],
                [[1.0, rho, 0.0, 0.0], [rho, 1.0, 0.0, 0.0],
                 [0.0, 0.0, 0.5 * (1 + e(-2.0)), 0.5 * (e(-1 - rho) + e(-1 + rho))],
                 [0.0, 0.0, 0.5 * (e(-1 - rho) + e(-1 + rho)), 0.5 * (1 + e(-2.0))]])
    independent = ([0.0, 0.0, cu, ce],
                   [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, y_cos_y],
                    [0.0, 0.0, cu2, cu * ce], [0.0, y_cos_y, cu * ce, ce2]])
    mean = 0.6 * np.array(gaussian[0]) + 0.4 * np.array(independent[0])
    want = 0.6 * np.array(gaussian[1]) + 0.4 * np.array(independent[1]) - np.outer(mean, mean)
    fs = [ec.pi1, ec.pi2, COS_PI1, COS_PI2]
    m = ec.gamma_matrix(fs, law)
    assert m.method == "quadrature"
    assert np.abs(m.entries - want).max() <= 1e-12
    assert [law.expectation(f) for f in fs[2:]] == pytest.approx(mean[2:], abs=1e-12)
    assert [r.atom_xs.size for r in law._gauss_rules] == [2 * 48 ** 2, 2 * 96 ** 2]
    # a discrete component's rule is its own atoms
    xs, weights = [0.1, 1.3, -0.7], [0.2, 0.3, 0.5]
    law = ec.MixtureLaw([ec.DiscreteLaw(xs, [1.0, -0.4, 0.3], weights), ec.GaussianLaw(0.5)],
                        [0.4, 0.6])
    want = 0.4 * sum(w * math.cos(x) for x, w in zip(xs, weights)) + 0.6 * math.exp(-0.5)
    assert law.expectation(COS_PI1) == pytest.approx(want, abs=1e-15)
    assert ec.gamma_matrix([ec.pi1, COS_PI1], law).method == "quadrature"


def test_a_rule_drops_the_atoms_whose_weight_underflows():
    # exponential x exponential weights reach 3.8e-310; a part of 1e-15
    # takes them below the least subnormal, to 0, which a discrete law refuses
    law = ec.MixtureLaw([ec.IndependentLaw("exponential_std", "exponential_std"),
                         ec.GaussianLaw(0.0)], [1e-15, 1.0 - 1e-15])
    mean, _ = COS_MOMENTS["standard_normal"]
    want = 1e-15 * COS_MOMENTS["exponential_std"][0] + (1.0 - 1e-15) * mean
    assert law.expectation(COS_PI1) == pytest.approx(want, abs=1e-12)
    rule = law._gauss_rules[1]
    assert 96 ** 2 < rule.atom_xs.size < 2 * 96 ** 2
    assert (rule.atom_weights > 0.0).all()


def test_a_jump_is_refused_under_a_continuous_law_and_exact_on_atoms():
    jump = ec.StatFunction(lambda x, y: (x > 0.3) + 0.0 * y, "1{pi1 > 0.3}")
    law = ec.GaussianLaw(0.5)
    for call in (lambda: law.expectation(jump), lambda: law.covariance_estimate(jump, jump)):
        with pytest.raises(ec.MomentError,
                           match=r"\(1\{pi1 > 0\.3\}: the 48- and 96-point Gauss rules differ by"):
            call()
    with pytest.raises(ec.MomentError, match=(
            r"^moment does not exist under this law at requested precision \(pi1\*1\{pi1 > 0\.3\}: "
            r"the 48- and 96-point Gauss rules differ by 0\.018\)$")):
        ec.gamma_matrix([ec.pi1, jump], law)
    atoms = ec.DiscreteLaw([0.1, 1.3, -0.7], [1.0, -0.4, 0.3], [0.2, 0.3, 0.5])
    est = atoms.covariance_estimate(jump, jump)
    assert (est.value, est.method) == (pytest.approx(0.3 * 0.7, rel=1e-15), "exact")


def test_a_marginal_without_a_gauss_rule_integrates_polynomials_only():
    ex = get_marginal("exponential_std")
    law = ec.IndependentLaw(ec.Marginal(ex.name, ex.method, ex.transform, ex.raw_moment),
                            "uniform_std")
    assert law.covariance_estimate(ec.pi1, ec.pi1) == (1.0, 0.0, "exact")
    with pytest.raises(ec.MomentError, match="^IndependentLaw has no Gauss rule"):
        law.expectation(COS_PI1)


def test_a_non_polynomial_expectation_draws_no_batch():
    # the rules of a fresh law take well under 1 MB; the 1M-pair batch took 16
    ec.GaussianLaw(0.1).expectation(COS_PI1)  # numpy.polynomial, imported once
    law = ec.GaussianLaw(0.5)
    tracemalloc.start()
    try:
        got = law.expectation(COS_PI1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert peak < 1 << 20


def test_gaussian_rejects_affine_rho():
    for rho in (1.0, -1.0, 1.0 - 5e-13):
        with pytest.raises(ec.AffineDependenceError):
            ec.GaussianLaw(rho)
    ec.GaussianLaw(0.999)  # still admissible
    ec.GaussianLaw(1.0 - 1e-10)  # as is a rho 100 times the tolerance from 1


def test_gaussian_rejects_a_rho_that_is_not_finite():
    for rho, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ec.InputFormatError, match=f"^gaussian rho must be finite, got {text}$"):
            ec.GaussianLaw(rho)
    with pytest.raises(ec.InputFormatError, match="^gaussian rho must be finite, got nan$"):
        ec.law_from_spec({"kind": "gaussian", "rho": math.nan})


def test_gaussian_sample_statistics():
    law = ec.GaussianLaw(0.6)
    s = law.sample(200_000, derive_rng(11))
    assert float(s.xs.mean()) == pytest.approx(0.0, abs=0.01)
    assert float(s.xs.var()) == pytest.approx(1.0, abs=0.02)
    assert ec.compute_rho_n(s) == pytest.approx(0.6, abs=0.01)


def test_gaussian_zero_rho_large_sample_uncorrelated():
    s = ec.GaussianLaw(0.0).sample(1_000_000, derive_rng(3))
    assert abs(ec.compute_rho_n(s)) <= 0.004  # 4 sigma at n = 1e6


def test_gaussian_columns_are_marginally_normal():
    s = ec.GaussianLaw(0.8).sample(50_000, derive_rng(21))
    crit = 1.63 / math.sqrt(s.n)
    assert ec.ks_statistic(s.xs, sps.norm.cdf) < crit
    assert ec.ks_statistic(s.ys, sps.norm.cdf) < crit


# -------------------------------------------------------- IndependentLaw

def test_independent_moments_factor():
    law = ec.IndependentLaw("uniform_std", "exponential_std")
    assert law.raw_moment(2, 3) == pytest.approx(1.0 * 2.0, rel=1e-12)
    assert law.raw_moment(4, 2) == pytest.approx(1.8 * 1.0, rel=1e-12)
    assert ec.rho_from_moments(law.bivariate_moments()) == 0.0


def test_independent_accepts_marginal_objects():
    law = ec.IndependentLaw(get_marginal("rademacher"), "standard_normal")
    assert law.describe() == {"kind": "independent",
                              "marginal_x": "rademacher",
                              "marginal_y": "standard_normal"}


# ------------------------------------------------------------ MixtureLaw

def test_mixture_moments_are_weighted_averages():
    law = ec.MixtureLaw([ec.GaussianLaw(0.8), ec.GaussianLaw(-0.2)], [0.3, 0.7])
    # cov = 0.3*0.8 + 0.7*(-0.2); each component has unit variances, zero means
    assert law.raw_moment(1, 1) == pytest.approx(0.10, rel=1e-12)
    assert ec.rho_from_moments(law.bivariate_moments()) == pytest.approx(0.10, rel=1e-12)
    assert law.raw_moment(2, 0) == pytest.approx(1.0, rel=1e-12)


def test_independent_raw_moments_are_memoised_products_of_marginals():
    # each (i, j) asks the marginals once, and keeps the bits of their product
    asked = []
    ex, uni = get_marginal("exponential_std"), get_marginal("uniform_std")
    counted = ec.Marginal(ex.name, ex.method, ex.transform, lambda k: asked.append(k) or ex.raw_moment(k))
    law = ec.IndependentLaw(counted, uni)
    want = {(i, j): ex.raw_moment(i) * uni.raw_moment(j) for i in range(6) for j in range(6)}
    for _ in range(2):
        assert {k: law.raw_moment(*k).hex() for k in want} == {k: v.hex() for k, v in want.items()}
    assert len(asked) == len(want)


def test_mixture_raw_moments_are_memoised_sums_over_components(monkeypatch):
    parts = [ec.GaussianLaw(0.8), ec.IndependentLaw("uniform_std", "exponential_std"),
             ec.GaussianLaw(-0.2)]
    law = ec.MixtureLaw(parts, [0.3, 0.5, 0.2])
    want = {(i, j): sum(w * c.raw_moment(i, j) for w, c in zip(law.weights, parts))
            for i in range(5) for j in range(5)}
    asked = []

    def counted(raw_moment):
        return lambda i, j: asked.append((i, j)) or raw_moment(i, j)

    for c in parts:
        monkeypatch.setattr(c, "raw_moment", counted(c.raw_moment))
    for _ in range(2):
        assert {k: law.raw_moment(*k).hex() for k in want} == {k: v.hex() for k, v in want.items()}
    # each component is asked for each moment once, in declaration order
    assert asked == [k for k in want for _ in parts]


@pytest.mark.parametrize("law", [
    ec.GaussianLaw(-0.3), ec.IndependentLaw("exponential_std", "uniform_std"),
    ec.MixtureLaw([ec.GaussianLaw(0.8), ec.IndependentLaw("rademacher", "standard_normal")],
                  [0.3, 0.7])], ids=lambda law: law.kind)
def test_polynomial_moments_are_lookups_not_function_products(monkeypatch, law):
    products = []
    mul = ec.StatFunction.__mul__

    def counted(f, g):
        products.append((f.label, getattr(g, "label", g)))
        return mul(f, g)

    monkeypatch.setattr(ec.StatFunction, "__mul__", counted)
    m = law.bivariate_moments()
    assert products == []
    assert (m.mu_x, m.mu_y) == law.mean() == (0.0, 0.0)


def test_mixture_sampling_consistent_with_exact_rho():
    law = ec.MixtureLaw([ec.GaussianLaw(0.8), ec.GaussianLaw(-0.2)], [0.3, 0.7])
    s = law.sample(200_000, derive_rng(31))
    rho = ec.rho_from_moments(law.bivariate_moments())
    assert ec.compute_rho_n(s) == pytest.approx(rho, abs=0.01)


def test_mixture_validation_errors():
    g = ec.GaussianLaw(0.1)
    with pytest.raises(ec.InputFormatError, match="sum"):
        ec.MixtureLaw([g, g], [0.5, 0.6])
    with pytest.raises(ec.InputFormatError, match="positive"):
        ec.MixtureLaw([g, g], [1.2, -0.2])
    with pytest.raises(ec.InputFormatError):
        ec.MixtureLaw([g], [0.5, 0.5])
    with pytest.raises(ec.InputFormatError):
        ec.MixtureLaw([], [])
    with pytest.raises(ec.InputFormatError,
                       match=r"^mixture weights must be finite, got \[nan, 0\.5\]$"):
        ec.MixtureLaw([ec.GaussianLaw(0.5), g], [math.nan, 0.5])
    with pytest.raises(ec.InputFormatError, match="^mixture components must be bivariate laws$"):
        ec.MixtureLaw([1], [1.0])


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_sample_rejects_fewer_than_two_pairs_before_drawing(n):
    rng = derive_rng(3)
    with pytest.raises(ec.InputFormatError,
                       match=f"^need at least 2 paired observations, got {n}$"):
        ec.GaussianLaw(0.5).sample(n, rng)
    # no draw was made: the stream is where a fresh one starts
    assert rng.random() == derive_rng(3).random()


def test_sample_takes_its_n_as_an_integer():
    law = ec.GaussianLaw(0.5)
    for n in (5.9, "5", 5.0):
        with pytest.raises(ec.InputFormatError, match=f"^n must be an integer, got {n!r}$"):
            law.sample(n, derive_rng(3))
    s = law.sample(np.int64(5), derive_rng(3))
    assert s.n == 5 and np.array_equal(s.xs, law.sample(5, derive_rng(3)).xs)


# ------------------------------------------------------------ DiscreteLaw

def test_discrete_expectation_enumerates_atoms():
    law = ec.DiscreteLaw([0.0, 1.0], [0.0, 1.0], [0.5, 0.5])
    assert law.expectation(ec.p) == pytest.approx(0.5, rel=1e-15)
    assert law.expectation(ec.pi1) == pytest.approx(0.5, rel=1e-15)
    est = law.covariance_estimate(ec.pi1, ec.pi2)
    assert est.method == "exact" and est.stderr == 0.0
    assert est.value == pytest.approx(0.25, rel=1e-14)


def test_discrete_integrates_opaque_callables_exactly():
    # no polynomial bookkeeping involved: atoms go through the callable
    law = ec.DiscreteLaw([-1.0, 0.0, 2.0], [1.0, -1.0, 0.5], [0.25, 0.5, 0.25])
    f = ec.StatFunction(lambda x, y: np.exp(np.asarray(x)), label="exp(x)")
    direct = 0.25 * math.exp(-1.0) + 0.5 * 1.0 + 0.25 * math.exp(2.0)
    assert law.expectation(f) == pytest.approx(direct, rel=1e-14)
    # the law integrates f on its own atoms, exactly, and builds no Gauss rule
    assert law._gamma((f,))[2] == "exact" and law._gauss_rules is None
    # the inherited covariance takes the exact branch through the callable
    est = law.covariance_estimate(f, f)
    assert est.method == "exact" and est.stderr == 0.0
    direct_sq = 0.25 * math.exp(-2.0) + 0.5 * 1.0 + 0.25 * math.exp(4.0)
    assert est.value == pytest.approx(direct_sq - direct ** 2, rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "inf and -inf"])
def test_discrete_non_finite_value_at_an_atom_has_one_message(bad):
    law = ec.DiscreteLaw([-1.0, 0.0, 2.0], [1.0, -1.0, 0.5], [0.25, 0.5, 0.25])
    if bad == "inf and -inf":
        f = ec.StatFunction(lambda x, y: np.array([np.inf, 1.0, -np.inf]), "spike")
    else:
        f = ec.StatFunction(lambda x, y: np.where(x > 1.0, bad, x), "spike")
    with pytest.raises(ec.MomentError, match=(
            r"^moment does not exist under this law at requested precision "
            r"\(spike: non-finite at an atom\)$")):
        law.expectation(f)


@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e6, 1.0), (-1e6, 1e-3), (0.0, 1e-3),
                                          (0.0, 1e3), (1e6, 1e3)])
def test_discrete_moments_over_atom_arrays_equal_the_function_route(shift, scale):
    # the atoms read as a weighted sample give the bits that expanding
    # u = pi1 - mu through the function algebra gives, signed zeros included
    xs = np.array([0.1, 1.3, -0.0, 2.2, -0.7, 0.0]) * scale
    ys = np.array([-0.0, -0.4, 0.3, 0.9, 0.0, -1.1]) / scale
    if shift:  # adding 0.0 would turn -0.0 into 0.0
        xs, ys = xs + shift, ys - shift
    law = ec.DiscreteLaw(xs, ys, [0.1, 0.2, 0.15, 0.25, 0.2, 0.1])
    e = law.expectation
    mu_x, mu_y = e(ec.pi1), e(ec.pi2)
    mu_x, mu_y = mu_x + e(ec.pi1 - mu_x), mu_y + e(ec.pi2 - mu_y)
    u, v = ec.pi1 - mu_x, ec.pi2 - mu_y
    uu, vv, uv = u * u, v * v, u * v
    want = {"mu_x": mu_x, "mu_y": mu_y, "var_x": e(uu), "var_y": e(vv), "cov_xy": e(uv),
            "m22": e(uu * vv), "m31": e(uu * uv), "m13": e(uv * vv),
            "m40": e(uu * uu), "m04": e(vv * vv)}
    got = law.bivariate_moments()
    for name, value in want.items():
        assert getattr(got, name).hex() == value.hex(), name
    assert [x.hex() for x in law.mean()] == [mu_x.hex(), mu_y.hex()]


def test_discrete_finite_values_whose_mean_overflows_give_inf():
    big = np.finfo(float).max
    law = ec.DiscreteLaw([big, big, big], [0.0, 1.0, 2.0], [0.1, 0.5, 0.4])
    with np.errstate(over="ignore"):
        assert law.expectation(ec.pi1) == math.inf


def test_discrete_expectation_rejects_a_function_of_the_wrong_shape():
    law = ec.DiscreteLaw([0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
    five = ec.StatFunction(lambda x, y: np.array([5.0]), "five")
    with pytest.raises(ec.EvaluationError, match=r"^five returned shape \(1,\), expected \(3,\)$"):
        law.expectation(five)

def test_discrete_matches_polynomial_path():
    # independent cross-check: callable enumeration vs raw-moment expansion
    law = ec.DiscreteLaw([-1.0, 0.5, 2.0], [0.5, -1.0, 1.0], [0.2, 0.3, 0.5])
    f = (ec.pi1 + 2.0 * ec.pi2) ** 2 - ec.p
    via_atoms = law.expectation(f)
    via_moments = sum(c * law.raw_moment(i, j) for (i, j), c in f.poly.items())
    assert via_atoms == pytest.approx(via_moments, rel=1e-13)


def test_discrete_validation_errors():
    with pytest.raises(ec.InputFormatError):
        ec.DiscreteLaw([], [], [])
    with pytest.raises(ec.InputFormatError):
        ec.DiscreteLaw([1.0], [1.0, 2.0], [1.0])
    with pytest.raises(ec.InputFormatError, match="positive"):
        ec.DiscreteLaw([0.0, 1.0], [0.0, 1.0], [1.5, -0.5])
    with pytest.raises(ec.InputFormatError, match="sum"):
        ec.DiscreteLaw([0.0, 1.0], [0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ec.InputFormatError, match="^non-finite atom or weight$"):
        ec.DiscreteLaw([math.nan, 1.0], [0.0, 1.0], [0.5, 0.5])


def test_discrete_sampling_hits_only_atoms():
    law = ec.DiscreteLaw([-1.0, 0.0, 2.0], [1.0, -1.0, 0.5], [0.25, 0.5, 0.25])
    s = law.sample(10_000, derive_rng(41))
    assert set(np.unique(s.xs)) <= {-1.0, 0.0, 2.0}
    assert set(np.unique(s.ys)) <= {-1.0, 0.5, 1.0}


def _exact_means_and_sigma_squared(law):
    """(mu_x, mu_y, sigma^2 of rho_n) in exact rational arithmetic on the
    law's float atoms, each rounded once to a float.

    rho times a standardized moment is rational, e.g. rho m31/(sd_x^3 sd_y)
    = cov m31/(var_x^2 var_y), so no square root is needed.
    """
    return _exact_atoms_means_and_sigma_squared(
        *([Fraction(v) for v in a.tolist()]
          for a in (law.atom_xs, law.atom_ys, law.atom_weights)))


def _exact_atoms_means_and_sigma_squared(xs, ys, w):
    """The same for rational atoms xs, ys of weights w."""
    total = sum(w)
    w = [a / total for a in w]
    mx = sum(a * x for a, x in zip(w, xs))
    my = sum(a * y for a, y in zip(w, ys))

    def m(p, q):
        return sum(a * (x - mx) ** p * (y - my) ** q for a, x, y in zip(w, xs, ys))

    vx, vy, c = m(2, 0), m(0, 2), m(1, 1)
    r2 = c * c / (vx * vy)
    sigma2 = ((1 + r2 / 2) * m(2, 2) / (vx * vy)
              + r2 / 4 * (m(4, 0) / vx ** 2 + m(0, 4) / vy ** 2)
              - c * (m(3, 1) / (vx ** 2 * vy) + m(1, 3) / (vx * vy ** 2)))
    return float(mx), float(my), float(sigma2)


@pytest.mark.parametrize("shift, scale", [
    (shift, scale) for shift in (0.0, 1.0, 1e2, 1e4, 1e6) for scale in (1e-3, 1.0, 1e3)
    if shift / scale <= 1e6])
def test_discrete_sigma_squared_is_shift_and_scale_stable(shift, scale):
    # moments are taken about the law's mean, found to within an ulp of the
    # largest atom, so a location shift up to 1e6 times the scale costs no
    # more than about 1e-9 of sigma^2; the atoms read as a sample take the
    # same route, and are checked against their equal-weight law
    rng = derive_rng(2024, int(shift), int(scale * 1000))
    for _ in range(8):
        k = int(rng.integers(6, 13))
        xs = rng.uniform(-2.0, 2.0, k) * scale + shift
        ys = rng.uniform(-2.0, 2.0, k) * scale - shift
        w = rng.random(k) + 0.1
        law = ec.DiscreteLaw(xs, ys, w / w.sum())
        equal_weights = ec.DiscreteLaw(xs, ys, np.full(k, 1.0 / k))
        for law, m in ((law, law.bivariate_moments()),
                       (equal_weights, ec.estimate_moments(ec.PairedSample(xs, ys)))):
            mx, my, sigma2 = _exact_means_and_sigma_squared(law)
            assert abs(m.mu_x - mx) <= math.ulp(np.abs(xs).max())
            assert abs(m.mu_y - my) <= math.ulp(np.abs(ys).max())
            assert ec.sigma_squared(m) == pytest.approx(sigma2, rel=1e-9)


@pytest.mark.parametrize("shift, scale", [
    (shift, scale) for shift in (0.0, 1.0, 1e2, 1e4, 1e6) for scale in (1e-3, 1.0, 1e3)
    if shift / scale <= 1e6])
def test_mixture_of_shifted_discrete_laws_keeps_sigma_squared(shift, scale):
    # each component's central moments are shifted to the mixture's mean, so
    # components far from the origin do not cancel, in the closed form and in
    # the pipeline, which integrates F about that mean; the reference
    # flattens the mixture into one set of rational atoms
    rng = derive_rng(2025, int(shift), int(scale * 1000))
    for _ in range(6):
        parts, weights = [], rng.random(int(rng.integers(2, 4))) + 0.2
        weights /= weights.sum()
        for _ in weights:
            k = int(rng.integers(3, 9))
            at = rng.uniform(-3.0, 3.0, 2) * scale
            spread = scale * rng.uniform(0.5, 2.0)
            w = rng.random(k) + 0.1
            parts.append(ec.DiscreteLaw(rng.uniform(-2.0, 2.0, k) * spread + at[0] + shift,
                                        rng.uniform(-2.0, 2.0, k) * spread + at[1] - shift,
                                        w / w.sum()))
        law = ec.MixtureLaw(parts, weights.tolist())
        xs, ys, w = [], [], []
        for c, wc in zip(parts, law.weights):
            xs += [Fraction(v) for v in c.atom_xs.tolist()]
            ys += [Fraction(v) for v in c.atom_ys.tolist()]
            w += [Fraction(wc) * Fraction(v) for v in c.atom_weights.tolist()]
        mx, my, sigma2 = _exact_atoms_means_and_sigma_squared(xs, ys, w)
        m = law.bivariate_moments()
        assert abs(m.mu_x - mx) <= 4 * math.ulp(max(abs(x) for x in xs))
        assert abs(m.mu_y - my) <= 4 * math.ulp(max(abs(y) for y in ys))
        assert ec.sigma_squared(m) == pytest.approx(sigma2, rel=1e-9)
        pipeline = ec.asymptotic_variance(ec.correlation_expansion(m), law)
        assert pipeline == pytest.approx(sigma2, rel=1e-9)


def _shifted_ci_mixture(s):
    """CI's two-part discrete mixture shifted x + s, y - s, and its flattened
    atoms as rationals: xs, ys and their weights."""
    parts = [ec.DiscreteLaw([x + s for x in xs], [y - s for y in ys], w) for xs, ys, w in (
        ([0.1, 1.3, -0.7, 2.2, 0.5], [1.0, -0.4, 0.3, 0.9, -1.1], [0.1, 0.2, 0.3, 0.25, 0.15]),
        ([-1.0, 0.4, 2.5], [0.6, -0.8, 1.7], [0.3, 0.5, 0.2]))]
    law = ec.MixtureLaw(parts, [0.6, 0.4])
    xs, ys, w = [], [], []
    for c, wc in zip(parts, law.weights):
        xs += [Fraction(v) for v in c.atom_xs.tolist()]
        ys += [Fraction(v) for v in c.atom_ys.tolist()]
        w += [Fraction(wc) * Fraction(v) for v in c.atom_weights.tolist()]
    return law, xs, ys, w


@pytest.mark.parametrize("s", [1e3, 1e4, 1e6])
def test_shifted_mixture_integrates_the_closed_form_influence_about_its_mean(s):
    # correlation_influence is a polynomial in the raw coordinates; the
    # mixture integrates it about its mean, where nothing cancels, so its
    # variance is the sigma^2 of the flattened atoms
    law, xs, ys, w = _shifted_ci_mixture(s)
    sigma2 = _exact_atoms_means_and_sigma_squared(xs, ys, w)[2]
    e = ec.AsymptoticExpansion(0.0, ec.correlation_influence(law.bivariate_moments()))
    assert ec.asymptotic_variance(e, law) == pytest.approx(sigma2, rel=1e-9)


@pytest.mark.parametrize("s", [1e3, 1e4, 1e6])
def test_shifted_mixture_gamma_of_raw_polynomials_is_the_atoms_gram_matrix(s):
    # p, pi1^2 and pi2^2 are written about the origin, and integrated about
    # the mixture's mean: Gamma is the Gram matrix of the flattened atoms'
    # centred values, in exact rational arithmetic
    law, xs, ys, w = _shifted_ci_mixture(s)
    total = sum(w)
    w = [a / total for a in w]
    vals = [[x * y for x, y in zip(xs, ys)], [x * x for x in xs], [y * y for y in ys]]
    centred = [[v - sum(a * b for a, b in zip(w, row)) for v in row] for row in vals]
    want = np.array([[float(sum(a * b * c for a, b, c in zip(w, ci, cj))) for cj in centred]
                     for ci in centred])
    got = ec.gamma_matrix([ec.p, ec.pi1 ** 2, ec.pi2 ** 2], law).entries
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_binomial_shift_beyond_float64_is_a_moment_error():
    # C(i, a) d^(i - a) overflows as a Python number; the shift names the term
    # and the point, whether a moment or a polynomial is shifted
    law = ec.GaussianLaw(0.3)
    with pytest.raises(ec.MomentError, match=r"\(3000,0\) about \(0\.5, 0\.0\)"):
        law.moment_about(3000, 0, 0.5, 0.0)
    with pytest.raises(ec.MomentError, match=r"\(1100,0\) about \(2\.0, 0\.0\)"):
        law.moment_about(1100, 0, 2.0, 0.0)
    mixture = ec.MixtureLaw([ec.DiscreteLaw([1.0, 3.0], [-1.0, 1.0], [0.5, 0.5])], [1.0])
    assert mixture.mean() == (2.0, 0.0)
    with pytest.raises(ec.MomentError, match=r"\(1100,0\) about \(0\.0, 0\.0\) to \(2\.0, 0\.0\)"):
        mixture.expectation(ec.pi1 ** 1100)


class _LawWithoutMoments(ec.BivariateLaw):
    """A law that implements neither raw_moment nor moment_about."""

    def transform(self, raw, size):
        return raw[0, :size], raw[1, :size]

    def describe(self):
        return {"kind": "none"}


def test_an_oracle_without_a_moment_primitive_raises_before_recursing():
    oracle = _LawWithoutMoments()
    for call in (lambda: oracle.expectation(ec.pi1), lambda: oracle.raw_moment(1, 0),
                 lambda: oracle.moment_about(1, 0, 1.0, 0.0)):
        with pytest.raises(ec.MomentError, match="implements neither raw_moment nor moment_about"):
            call()


@pytest.mark.parametrize("shift, scale", [
    (shift, scale) for shift in (0.0, 1.0, 1e2, 1e4, 1e6) for scale in (1e-3, 1.0, 1e3)])
def test_pipeline_quadratic_form_on_shifted_discrete_laws(shift, scale):
    # s^T Gamma_F s over the base functions agrees with Gamma(h, h) of the
    # influence built from them, and, up to shift/scale 1e6, with the exact
    # rational sigma^2 of the atoms as closely as the closed form does
    rng = derive_rng(2029, int(shift), int(scale * 1000))
    for _ in range(8):
        k = int(rng.integers(6, 13))
        w = rng.random(k) + 0.1
        law = ec.DiscreteLaw(rng.uniform(-2.0, 2.0, k) * scale + shift,
                             rng.uniform(-2.0, 2.0, k) * scale - shift, w / w.sum())
        e = ec.correlation_expansion(law.bivariate_moments())
        pipeline = ec.asymptotic_variance(e, law)
        assert pipeline == pytest.approx(
            law.covariance_estimate(e.influence, e.influence).value, rel=1e-12)
        if shift / scale <= 1e6:
            assert pipeline == pytest.approx(_exact_means_and_sigma_squared(law)[2], rel=1e-9)


# ------------------------------------------------- moments about a point

# exact marginal moments E[X^k] of the named marginals
_EXACT_MARGINAL = {
    "standard_normal": lambda k: 0 if k % 2 else math.prod(range(k - 1, 0, -2)),
    "uniform_std": lambda k: 0 if k % 2 else Fraction(3 ** (k // 2), k + 1),
    "exponential_std": lambda k: sum((-1) ** j * math.perm(k, k - j) for j in range(k + 1)),
    "rademacher": lambda k: 0 if k % 2 else 1,
}


def _exact_gaussian_raw(rho, i, j):
    # the Isserlis recursion in rationals
    memo = {}

    def m(a, b):
        if a < 0 or b < 0:
            return 0
        if (a, b) not in memo:
            memo[a, b] = (1 if (a, b) == (0, 0) else
                          (a - 1) * m(a - 2, b) + rho * b * m(a - 1, b - 1) if a
                          else (b - 1) * m(0, b - 2))
        return memo[a, b]

    return m(i, j)


def _exact_leaf_marginals(law):
    """Exact E[X^k] and E[Y^k] of a Gaussian or independent law."""
    if law.kind == "gaussian":
        return _EXACT_MARGINAL["standard_normal"], _EXACT_MARGINAL["standard_normal"]
    return _EXACT_MARGINAL[law.marginal_x.name], _EXACT_MARGINAL[law.marginal_y.name]


def _exact_raw(law, a, b):
    """Exact E[X^a Y^b] of a Gaussian or independent law."""
    if law.kind == "gaussian":
        return _exact_gaussian_raw(Fraction(law.rho_param), a, b)
    mx, my = _exact_leaf_marginals(law)
    return mx(a) * my(b)


def _exact_moment_about(law, i, j, p, q):
    """E[(X - p)^i (Y - q)^j] in rationals, and an upper bound on
    E|(X - p)^i (Y - q)^j| that scales the rounding of a float evaluation."""
    p, q = Fraction(p), Fraction(q)
    if law.kind == "discrete":
        terms = [Fraction(w) * (Fraction(x) - p) ** i * (Fraction(y) - q) ** j
                 for w, x, y in zip(law.atom_weights.tolist(), law.atom_xs.tolist(),
                                    law.atom_ys.tolist())]
        return sum(terms), sum(abs(t) for t in terms)
    if law.kind == "mixture":
        parts = [_exact_moment_about(c, i, j, p, q) for c in law.components]
        return (sum(Fraction(w) * v for w, (v, _) in zip(law.weights, parts)),
                sum(Fraction(w) * s for w, (_, s) in zip(law.weights, parts)))
    mx, my = _exact_leaf_marginals(law)
    value = scale = 0
    for a in range(i + 1):
        for b in range(j + 1):
            c = math.comb(i, a) * math.comb(j, b) * (-p) ** (i - a) * (-q) ** (j - b)
            value += c * _exact_raw(law, a, b)
            # E|X^a Y^b| <= sqrt(E X^2a E Y^2b), by Cauchy-Schwarz
            scale += abs(c) * Fraction(math.sqrt(mx(2 * a) * my(2 * b)))
    return value, scale


def _discrete(rng, k, scale, shift):
    w = rng.random(k) + 0.1
    return ec.DiscreteLaw(rng.uniform(-2.0, 2.0, k) * scale + shift,
                          rng.uniform(-2.0, 2.0, k) * scale - shift, w / w.sum())


def _moment_laws():
    rng = derive_rng(2026)
    shifted = [_discrete(rng, int(rng.integers(3, 9)), 1.0, s) for s in (-3.0, 1e3, 2e3)]
    mixed_scales = [_discrete(rng, int(rng.integers(3, 9)), s, 0.5) for s in (1e-3, 1.0, 1e3)]
    return {
        "gaussian": ec.GaussianLaw(-0.35),
        "independent": ec.IndependentLaw("exponential_std", "uniform_std"),
        "discrete": _discrete(rng, 7, 1.0, 0.0),
        "shifted discrete": _discrete(rng, 9, 1e-2, 1e4),
        "mixture": ec.MixtureLaw([ec.GaussianLaw(0.6), ec.IndependentLaw(
            "rademacher", "exponential_std")], [0.45, 0.55]),
        "nested mixture": ec.MixtureLaw(
            [ec.MixtureLaw([ec.GaussianLaw(0.2), shifted[0]], [0.3, 0.7]),
             ec.IndependentLaw("uniform_std", "standard_normal"), shifted[1]],
            [0.5, 0.2, 0.3]),
        "mixture of shifted discrete laws": ec.MixtureLaw(shifted, [0.2, 0.5, 0.3]),
        "mixture of mixed-scale discrete laws": ec.MixtureLaw(mixed_scales, [0.3, 0.3, 0.4]),
    }


MOMENT_LAWS = _moment_laws()


@pytest.mark.parametrize("law", MOMENT_LAWS.values(), ids=MOMENT_LAWS.keys())
def test_moment_about_matches_exact_rational_sums(law):
    # at the origin, at the mean, and at points off both, for every order
    # through (4, 4); the error is a few rounding units of E|(X-p)^i (Y-q)^j|
    mu_x, mu_y = law.mean()
    for p, q in ((0.0, 0.0), (mu_x, mu_y), (mu_x, 0.0), (1.5, -2.0), (-1e3, 1e3)):
        for i in range(5):
            for j in range(5):
                want, scale = _exact_moment_about(law, i, j, p, q)
                got = law.moment_about(i, j, p, q)
                assert abs(Fraction(got) - want) <= Fraction(1e-14) * scale, (p, q, i, j)


@pytest.mark.parametrize("name", MOMENT_LAWS)
def test_raw_and_central_moments_are_moment_about_at_origin_and_mean(name):
    # a second build of the law answers moment_about, so no memo is shared
    law, fresh = MOMENT_LAWS[name], _moment_laws()[name]
    mean = law.mean()
    assert [a.hex() for a in fresh.mean()] == [a.hex() for a in mean]
    for i in range(5):
        for j in range(5):
            assert law.raw_moment(i, j).hex() == fresh.moment_about(i, j, 0.0, 0.0).hex()
            assert law.moment_about(i, j, *mean).hex() == fresh.moment_about(i, j, *mean).hex()
    # the central moments every law but a discrete one reports: moment_about
    # at the mean, looked up once per field
    m = ec.BivariateLaw._central_moments(law)
    for field, (i, j) in (("var_x", (2, 0)), ("var_y", (0, 2)), ("cov_xy", (1, 1)),
                          ("m22", (2, 2)), ("m31", (3, 1)), ("m13", (1, 3)),
                          ("m40", (4, 0)), ("m04", (0, 4))):
        assert getattr(m, field).hex() == fresh.moment_about(i, j, *mean).hex(), field
    assert [m.mu_x.hex(), m.mu_y.hex()] == [a.hex() for a in mean]


def test_mixture_raw_moments_keep_each_parts_digits():
    # raw moments are the weighted sums of the parts' raw moments, so a part
    # at 1e-3 keeps its digits beside one at 1e3; deriving them from central
    # moments at the mixture's mean would cancel them away
    rng = derive_rng(2027)
    for _ in range(20):
        parts = [_discrete(rng, int(rng.integers(3, 9)), s, rng.uniform(-2.0, 2.0) * s)
                 for s in (1e-3, 1.0, 1e3)]
        law = ec.MixtureLaw(parts, [0.3, 0.3, 0.4])
        for i in range(5):
            for j in range(5):
                want, scale = _exact_moment_about(law, i, j, 0.0, 0.0)
                assert abs(Fraction(law.raw_moment(i, j)) - want) <= Fraction(1e-15) * scale


# ----------------------------------------------------------- determinism

def test_sampling_is_seed_deterministic():
    law = ec.GaussianLaw(0.4)
    a = law.sample(1000, derive_rng(9, 1))
    b = law.sample(1000, derive_rng(9, 1))
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.ys, b.ys)
    c = law.sample(1000, derive_rng(9, 2))
    assert not np.array_equal(a.xs, c.xs)


def test_all_law_kinds_sample_deterministically():
    laws = [
        ec.GaussianLaw(-0.3),
        ec.IndependentLaw("uniform_std", "rademacher"),
        ec.MixtureLaw([ec.GaussianLaw(0.5), ec.GaussianLaw(0.0)], [0.4, 0.6]),
        ec.DiscreteLaw([0.0, 1.0], [1.0, 0.0], [0.5, 0.5]),
    ]
    for law in laws:
        a = law.sample(500, derive_rng(77, 0))
        b = law.sample(500, derive_rng(77, 0))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)


# ---------------------------------------------------------- law_from_spec

def test_law_spec_round_trip():
    laws = [
        ec.GaussianLaw(0.25),
        ec.IndependentLaw("exponential_std", "uniform_std"),
        ec.MixtureLaw([ec.GaussianLaw(0.7), ec.GaussianLaw(-0.1)], [0.2, 0.8]),
        ec.DiscreteLaw([0.0, 1.0, -1.0], [1.0, 0.0, 0.5], [0.3, 0.3, 0.4]),
    ]
    for law in laws:
        rebuilt = ec.law_from_spec(law.describe())
        assert rebuilt.describe() == law.describe()
        a = law.sample(200, derive_rng(13))
        b = rebuilt.sample(200, derive_rng(13))
        np.testing.assert_array_equal(a.xs, b.xs)


def test_law_spec_rejects_unknown_kind():
    with pytest.raises(ec.InputFormatError, match="unknown law kind"):
        ec.law_from_spec({"kind": "levy"})


def test_law_spec_rejects_missing_fields():
    with pytest.raises(ec.InputFormatError, match="missing"):
        ec.law_from_spec({"kind": "gaussian"})
    with pytest.raises(ec.InputFormatError):
        ec.law_from_spec("gaussian")


MALFORMED_SPECS = {
    "gaussian_rho_string": {"kind": "gaussian", "rho": "x"},
    "gaussian_rho_list": {"kind": "gaussian", "rho": [1]},
    "mixture_weights_string": {"kind": "mixture", "weights": "a",
                               "components": [{"kind": "gaussian", "rho": 0.1}]},
    "discrete_xs_string": {"kind": "discrete", "xs": "a", "ys": [0.0], "weights": [1.0]},
    "marginal_list": {"kind": "independent", "marginal_x": ["x"], "marginal_y": "rademacher"},
    "nested_component": {"kind": "mixture", "weights": [1.0],
                         "components": [{"kind": "gaussian", "rho": None}]},
}


@pytest.mark.parametrize("spec", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_law_spec_rejects_values_of_the_wrong_type(spec):
    with pytest.raises(ec.InputFormatError, match="malformed value"):
        ec.law_from_spec(spec)


def test_law_spec_nests_at_most_32_mixtures():
    spec = {"kind": "gaussian", "rho": 0.5}
    for _ in range(32):
        spec = {"kind": "mixture", "weights": [1.0], "components": [spec]}
    assert ec.law_from_spec(spec).bivariate_moments() == ec.GaussianLaw(0.5).bivariate_moments()
    with pytest.raises(ec.InputFormatError, match="^law spec nests more than 32 mixtures$"):
        ec.law_from_spec({"kind": "mixture", "weights": [1.0], "components": [spec]})


def test_a_mixture_built_directly_nests_at_most_32_mixtures():
    # a typed error at construction, never a RecursionError from mean() on a 350-deep chain
    inner = ec.MixtureLaw([ec.GaussianLaw(0.1), ec.GaussianLaw(0.5)], [0.25, 0.75])
    law = inner
    with pytest.raises(ec.InputFormatError, match="^mixture nests more than 32 mixtures$"):
        for _ in range(349):
            law = ec.MixtureLaw([law], [1.0])
    # the deepest chain that was built integrates as its innermost mixture
    assert (inner.depth, law.depth) == (1, 32)
    assert law.bivariate_moments() == inner.bivariate_moments()


def test_law_spec_keeps_the_laws_own_errors():
    with pytest.raises(ec.AffineDependenceError, match="gaussian rho"):
        ec.law_from_spec({"kind": "gaussian", "rho": 1.0})
    with pytest.raises(ec.InputFormatError, match="unknown marginal"):
        ec.law_from_spec({"kind": "independent", "marginal_x": "x", "marginal_y": "rademacher"})
    with pytest.raises(ec.InputFormatError, match="weights must be positive"):
        ec.law_from_spec({"kind": "mixture", "weights": [-1.0],
                          "components": [{"kind": "gaussian", "rho": 0.1}]})


# -------------------------------------------------------- moment sanity

def test_raw_moments_agree_with_monte_carlo():
    laws = [
        ec.GaussianLaw(0.5),
        ec.IndependentLaw("uniform_std", "exponential_std"),
        ec.MixtureLaw([ec.GaussianLaw(0.9), ec.GaussianLaw(-0.5)], [0.5, 0.5]),
    ]
    for li, law in enumerate(laws):
        s = law.sample(400_000, derive_rng(97, li))
        for (i, j) in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 1)]:
            mc = float(np.mean(s.xs**i * s.ys**j))
            exact = law.raw_moment(i, j)
            scale = max(1.0, abs(exact))
            assert mc == pytest.approx(exact, abs=0.05 * scale), (law.kind, i, j)
