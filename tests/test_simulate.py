"""Tests for the Monte Carlo verification harness.

The heavy constructions (replicate counts, seeds, tolerances) are frozen;
each was calibrated against the predicted sampling noise before being
written down, so a pass is informative and a fail means a real regression.
"""

import functools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats as sps

import empcalc as ec
from empcalc import simulate
from empcalc.streams import BlockStreams, derive_rng


# ----------------------------------------------------------- ks_statistic

def test_ks_on_ideal_quantile_grid():
    # values at the (i - 0.5)/m quantiles leave exactly 0.5/m slack each side
    m = 100
    values = sps.norm.ppf((np.arange(1, m + 1) - 0.5) / m)
    assert ec.ks_statistic(values, ec.standard_normal_cdf) == pytest.approx(
        0.005, abs=1e-6)


def test_ks_single_point_at_median():
    assert ec.ks_statistic([0.0], ec.standard_normal_cdf) == pytest.approx(
        0.5, abs=1e-8)


def test_ks_sample_outside_support():
    assert ec.ks_statistic([-60.0, -55.0], ec.standard_normal_cdf) == pytest.approx(
        1.0, abs=1e-12)


def test_ks_rejects_empty_input():
    with pytest.raises(ec.EvaluationError, match="empty sample"):
        ec.ks_statistic([], ec.standard_normal_cdf)


def test_ks_rejects_non_finite_reference_cdf():
    with pytest.raises(ec.EvaluationError, match="reference CDF is not finite"):
        ec.ks_statistic([0.0, 1.0], lambda v: np.where(v > 0.5, np.nan, 0.5))


def test_ks_is_permutation_invariant_and_bounded():
    rng = derive_rng(17)
    v = rng.normal(size=400)
    d1 = ec.ks_statistic(v, ec.standard_normal_cdf)
    d2 = ec.ks_statistic(v[::-1].copy(), ec.standard_normal_cdf)
    assert d1 == d2
    assert 0.0 <= d1 <= 1.0


def test_ks_calibration_on_true_normal_draws():
    # 1% critical band: statistic below 1.63/sqrt(m) in >= 98 of 100 trials
    m = 500
    crit = 1.63 / math.sqrt(m)
    law = ec.IndependentLaw("standard_normal", "standard_normal")
    hits = sum(
        ec.ks_statistic(law.sample(m, derive_rng(606, t)).xs,
                        ec.standard_normal_cdf) < crit
        for t in range(100))
    assert hits >= 98


# ------------------------------------------------------- ExperimentConfig

def test_config_validation_messages():
    law = ec.GaussianLaw(0.2)
    with pytest.raises(ec.InputFormatError, match="n ≥ 2 required"):
        ec.ExperimentConfig(law, n=1, reps=100)
    with pytest.raises(ec.InputFormatError, match="reps ≥ 100 required"):
        ec.ExperimentConfig(law, n=100, reps=50)
    with pytest.raises(ec.InputFormatError, match=r"^reps ≤ 2\*\*32 required, got 4294967297$"):
        ec.ExperimentConfig(law, n=100, reps=2 ** 32 + 1)
    assert ec.ExperimentConfig(law, n=100, reps=2 ** 32).reps == 2 ** 32
    with pytest.raises(ec.InputFormatError, match="seed must be >= 0, got -1"):
        ec.ExperimentConfig(law, n=100, reps=100, seed=-1)
    with pytest.raises(ec.InputFormatError, match="BivariateLaw"):
        ec.ExperimentConfig("gaussian", n=100, reps=100)
    for field, value in (("n", 100.0), ("reps", 200.5), ("seed", 1.5)):
        with pytest.raises(ec.InputFormatError, match=f"{field} must be an integer"):
            ec.ExperimentConfig(law, **{"n": 100, "reps": 100, field: value})
    cfg = ec.ExperimentConfig(law, n=np.int64(100), reps=np.int32(100), seed=np.uint8(3))
    assert (cfg.n, cfg.reps, cfg.seed) == (100, 100, 3)
    assert all(type(v) is int for v in (cfg.n, cfg.reps, cfg.seed))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.01])
def test_tolerance_not_finite_or_negative_is_rejected_before_any_draw(monkeypatch, bad):
    def no_draws(*args):
        raise AssertionError("drew before checking the tolerances")

    monkeypatch.setattr(ec.GaussianLaw, "draw_block", no_draws)
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.5), n=100, reps=100)
    lemma1 = functools.partial(ec.run_lemma1_experiment, [ec.pi1])
    for run, name in ((ec.run_clt_experiment, "variance_rtol"),
                      (ec.run_clt_experiment, "ks_tol"),
                      (lemma1, "cov_atol"), (lemma1, "ks_tol")):
        with pytest.raises(ec.InputFormatError, match=f"{name} must be finite and >= 0"):
            run(cfg, **{name: bad})


@pytest.mark.parametrize("driver", ["clt", "lemma1"])
def test_tolerances_are_python_floats_in_the_report(driver):
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.5), n=100, reps=200, seed=3)
    if driver == "clt":
        run, names = ec.run_clt_experiment, ("variance_rtol", "ks_tol")
    else:
        run, names = functools.partial(ec.run_lemma1_experiment, [ec.pi1]), ("cov_atol", "ks_tol")
    plain = run(cfg, **dict(zip(names, (0.5, 0.25)))).to_dict()
    numpy_tols = run(cfg, **dict(zip(names, (np.float32(0.5), np.float64(0.25))))).to_dict()
    assert all(type(numpy_tols["config"][name]) is float for name in names)
    assert ec.report_to_json(numpy_tols) == ec.report_to_json(plain)
    assert ec.report_to_csv(numpy_tols) == ec.report_to_csv(plain)
    for bad in ("0.1", None, True, 1j):
        for name in names:
            with pytest.raises(ec.InputFormatError, match=f"^{name} must be a real number, got "):
                run(cfg, **{name: bad})


# ----------------------------------------------------- run_clt_experiment

def test_clt_gaussian_variance_within_ten_percent():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.5), n=2000, reps=5000, seed=101)
    rep = ec.run_clt_experiment(cfg)
    assert rep.results["predicted_sigma2"] == pytest.approx(0.5625, rel=1e-12)
    rel = abs(rep.results["empirical_variance"] - 0.5625) / 0.5625
    assert rel <= 0.10
    assert rep.passed


def test_clt_independent_normals_ks_below_threshold():
    law = ec.IndependentLaw("standard_normal", "standard_normal")
    cfg = ec.ExperimentConfig(law, n=2000, reps=5000, seed=202)
    rep = ec.run_clt_experiment(cfg)
    # Theorem-2 regime: sigma^2 = m22 = 1, so replicates target N(0,1)
    assert rep.results["predicted_sigma2"] == pytest.approx(1.0, rel=1e-12)
    assert rep.results["ks_distance"] < 0.03
    assert rep.passed


def test_clt_tiny_n_reports_honest_failure():
    # n=2 is legal but hopeless: rho_n is always +-1, so the checks must fail
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.5), n=2, reps=100, seed=7)
    rep = ec.run_clt_experiment(cfg)
    assert not rep.passed
    names = [c.name for c in rep.checks]
    assert names == ["variance_rel_error", "ks_distance"]
    assert rep.results["empirical_variance"] >= 0.0
    assert 0.0 <= rep.results["ks_distance"] <= 1.0


def test_clt_replicate_failure_carries_index():
    # two rademacher draws collide with probability 1/2 per coordinate,
    # so some replicate produces a degenerate marginal almost immediately
    law = ec.IndependentLaw("rademacher", "rademacher")
    cfg = ec.ExperimentConfig(law, n=2, reps=100, seed=0)
    with pytest.raises(ec.SimulationError,
                       match=r"replicate \d+ failed: .*degenerated marginal"):
        ec.run_clt_experiment(cfg)


def test_clt_degenerate_predicted_variance_rejected():
    # mass on the coordinate axes: rho = 0 but XY = 0 a.s., so sigma^2 = m22 = 0
    r = math.sqrt(2.0)
    law = ec.DiscreteLaw([r, -r, 0.0, 0.0], [0.0, 0.0, r, -r], [0.25] * 4)
    with pytest.raises(ec.DegenerateSampleError, match="standardized"):
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=100, reps=100))


def test_clt_affine_law_rejected():
    law = ec.DiscreteLaw([-1.0, 1.0], [-1.0, 1.0], [0.5, 0.5])  # rho = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an error, not a warning first
        with pytest.raises(ec.AffineDependenceError, match="affine dependence"):
            ec.run_clt_experiment(ec.ExperimentConfig(law, n=100, reps=100))


def test_clt_report_shape_and_key_order():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.3), n=50, reps=120, seed=5)
    rep = ec.run_clt_experiment(cfg)
    d = rep.to_dict()
    assert list(d.keys()) == ["command", "config", "results", "checks", "seed"]
    assert d["command"] == "simulate"
    assert d["config"]["law"] == {"kind": "gaussian", "rho": 0.3}
    assert d["config"]["n"] == 50 and d["config"]["reps"] == 120
    assert "threads" not in d["config"]
    for c in d["checks"]:
        assert list(c.keys()) == ["name", "value", "threshold", "pass"]


# block sizes in draws per coordinate: one row per block, 64, the default,
# and one block for the whole run
def _block_elements(n, reps):
    return (n, 64, simulate._BLOCK_ELEMENTS, n * reps)


def test_clt_reproducible_across_block_sizes(monkeypatch):
    law = ec.MixtureLaw([ec.GaussianLaw(0.7), ec.GaussianLaw(-0.1)], [0.4, 0.6])
    reports = []
    for elements in _block_elements(200, 150):
        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", elements)
        reports.append(ec.run_clt_experiment(
            ec.ExperimentConfig(law, n=200, reps=150, seed=99)).to_dict())
    assert all(r == reports[0] for r in reports)


def test_clt_variance_convergence_in_n():
    """Finite-n bias shrinks: median |empirical - predicted| over 20 seeds
    drops from n=100 to n=10000.

    At rho=0.9 the n=100 variance sits ~5.8% above its limit, while the
    replicate noise floor at reps=2500 is ~2.2% (so the n=10000 median
    reads noise ~1.5%, well separated from the bias).
    """
    law = ec.GaussianLaw(0.9)
    errs = {100: [], 10_000: []}
    for seed in range(20):
        for n in errs:
            rep = ec.run_clt_experiment(
                ec.ExperimentConfig(law, n=n, reps=2500, seed=3_000_000 + seed))
            errs[n].append(abs(rep.results["empirical_variance"]
                               - rep.results["predicted_sigma2"]))
    assert np.median(errs[10_000]) < np.median(errs[100])


# -------------------------------------------------- run_lemma1_experiment

def test_lemma1_joint_gaussian_covariance():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.5), n=1000, reps=5000, seed=303)
    rep = ec.run_lemma1_experiment([ec.pi1, ec.pi2], cfg)
    emp = np.asarray(rep.results["empirical_cov"])
    assert emp[0, 1] == pytest.approx(0.5, abs=0.05)
    np.testing.assert_allclose(rep.results["predicted_cov"],
                               [[1.0, 0.5], [0.5, 1.0]], rtol=1e-12)
    assert rep.passed
    assert rep.results["degenerate_coordinates"] == []


def test_lemma1_takes_each_mean_once(monkeypatch):
    # the exact Gamma looks up raw moments, not expectations: only the means
    # of G_n call expectation, once per function
    law = ec.GaussianLaw(0.5)
    calls = []
    expectation = law.expectation
    monkeypatch.setattr(law, "expectation", lambda f: calls.append(f.label) or expectation(f))
    ec.run_lemma1_experiment([ec.pi1, ec.pi2, ec.p],
                             ec.ExperimentConfig(law, n=100, reps=100, seed=7))
    assert calls == ["pi1", "pi2", "p"]


def test_lemma1_constant_coordinate_flagged_degenerate():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.2), n=100, reps=100, seed=11)
    rep = ec.run_lemma1_experiment([ec.constant(3.0), ec.pi1], cfg)
    assert rep.results["degenerate_coordinates"] == [0]
    assert rep.results["ks_per_coordinate"][0] is None
    assert rep.results["ks_per_coordinate"][1] is not None
    emp = np.asarray(rep.results["empirical_cov"])
    assert emp[0, 0] == pytest.approx(0.0, abs=1e-20)


def test_lemma1_linearly_dependent_family_is_rank_one():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.0), n=500, reps=300, seed=13)
    rep = ec.run_lemma1_experiment([ec.pi1, 2.0 * ec.pi1], cfg)
    emp = np.asarray(rep.results["empirical_cov"])
    eigs = np.linalg.eigvalsh(emp)
    assert eigs.min() < 0.01 * np.trace(emp)
    pred = np.asarray(rep.results["predicted_cov"])
    np.testing.assert_allclose(pred, [[1.0, 2.0], [2.0, 4.0]], rtol=1e-12)


def test_lemma1_rejects_empty_family():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.0), n=100, reps=100)
    with pytest.raises(ec.EvaluationError, match="no functions"):
        ec.run_lemma1_experiment([], cfg)


def test_lemma1_rejects_entry_that_is_not_a_stat_function():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.0), n=100, reps=100)
    with pytest.raises(ec.EvaluationError, match=r"fs\[1\] is a function, not a StatFunction"):
        ec.run_lemma1_experiment([ec.pi1, lambda x, y: x], cfg)


def test_lemma1_reproducible_across_block_sizes(monkeypatch):
    law = ec.IndependentLaw("uniform_std", "exponential_std")
    fs = [ec.pi1, ec.p, ec.pi2**2]
    reports = []
    for elements in _block_elements(150, 120):
        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", elements)
        reports.append(ec.run_lemma1_experiment(
            fs, ec.ExperimentConfig(law, n=150, reps=120, seed=44)).to_dict())
    assert all(r == reports[0] for r in reports)


def test_lemma1_report_shape():
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.1), n=60, reps=110, seed=21)
    rep = ec.run_lemma1_experiment([ec.pi1, ec.p], cfg)
    d = rep.to_dict()
    assert list(d.keys()) == ["command", "config", "results", "checks", "seed"]
    assert d["command"] == "lemma1"
    assert d["config"]["functions"] == ["pi1", "p"]
    check_names = [c["name"] for c in d["checks"]]
    assert check_names == ["max_cov_abs_error", "min_eigenvalue", "max_marginal_ks"]


# ----------------------------------------------------- the block kernel

_MARGINALS = ("standard_normal", "uniform_std", "exponential_std", "rademacher")


def _kernel_laws():
    laws = [ec.GaussianLaw(0.45)]
    laws += [ec.IndependentLaw(a, b) for k, a in enumerate(_MARGINALS)
             for b in _MARGINALS[k:]]
    laws.append(ec.MixtureLaw([ec.GaussianLaw(0.8),
                               ec.IndependentLaw("uniform_std", "exponential_std")],
                              [0.6, 0.4]))
    laws.append(ec.DiscreteLaw([0.0, 1.0, -2.0, 3.5], [1.0, -1.0, 0.5, 2.0],
                               [0.1, 0.2, 0.3, 0.4]))
    # mixtures whose block transform runs per component: a nested mixture,
    # a discrete component among three, and a component so rare that whole
    # blocks at small n never pick it
    laws.append(ec.MixtureLaw([ec.GaussianLaw(0.8),
                               ec.MixtureLaw([ec.IndependentLaw("rademacher", "uniform_std"),
                                              ec.DiscreteLaw([0.0, 2.0], [1.0, -1.0], [0.3, 0.7])],
                                             [0.5, 0.5])],
                              [0.6, 0.4]))
    laws.append(ec.MixtureLaw([ec.IndependentLaw("standard_normal", "exponential_std"),
                               ec.DiscreteLaw([0.0, 1.0, -2.0, 3.5], [1.0, -1.0, 0.5, 2.0],
                                              [0.1, 0.2, 0.3, 0.4]),
                               ec.GaussianLaw(-0.5)],
                              [0.45, 0.1, 0.45]))
    laws.append(ec.MixtureLaw([ec.GaussianLaw(-0.3),
                               ec.IndependentLaw("uniform_std", "exponential_std")],
                              [0.999, 0.001]))
    return laws


def _captured_ks_inputs(monkeypatch):
    seen = []
    real = simulate.ks_statistic

    def capture(values, cdf):
        seen.append(np.array(values, dtype=float))
        return real(values, cdf)

    monkeypatch.setattr(simulate, "ks_statistic", capture)
    return seen


def _accept(sample):
    """An explanation that accepts every replicate whose draws make a sample."""


def _loop_blocks(cfg, explain=_accept):
    """The (xs, ys, sx, sy) of every block the replicate loop reduces, in order."""
    blocks = []

    def keep(xs, ys, sx, sy):
        blocks.append((xs, ys, sx, sy))
        return np.zeros(len(xs)), np.zeros(len(xs), bool)

    simulate._replicates(cfg, keep, explain)
    return blocks


def test_block_rows_follow_n():
    def rows(n, reps):
        drawn = []

        def no_draws(streams, n):
            drawn.append(len(streams))
            zeros = np.zeros((len(streams), 1))
            return zeros, zeros

        law = SimpleNamespace(draw_block=no_draws)
        simulate._replicates(SimpleNamespace(law=law, n=n, reps=reps, seed=0),
                             lambda xs, *_: (xs[:, 0], np.zeros(len(xs), bool)), _accept)
        return drawn

    assert rows(100, 2000)[0] == 327
    assert rows(2000, 5000)[:2] == [16, 16]
    assert rows(40_000, 3) == [1, 1, 1]


@pytest.mark.parametrize("n, reps", [(2, 503), (3, 337), (100, 103), (101, 103)])
def test_block_rows_are_bit_identical_to_single_samples(monkeypatch, n, reps):
    # small blocks, so every reps ends in a partial block
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 1000)
    for law in _kernel_laws():
        blocks = _loop_blocks(ec.ExperimentConfig(law, n=n, reps=reps, seed=91))
        rows = len(blocks[0][0])
        assert len(blocks) > 1 and reps % rows != 0
        assert sum(len(xs) for xs, *_ in blocks) == reps
        i = 0
        for xs, ys, *_ in blocks:
            assert xs.shape == ys.shape == (len(xs), n)
            for row in range(len(xs)):
                s = law.sample(n, derive_rng(91, i))
                assert np.array_equal(xs[row], s.xs), (law.describe(), n, i)
                assert np.array_equal(ys[row], s.ys), (law.describe(), n, i)
                i += 1


@pytest.mark.parametrize("n", [3, 100, 101])
def test_clt_values_match_per_replicate_rho_n(monkeypatch, n):
    seen = _captured_ks_inputs(monkeypatch)
    reps = 400
    for law in _kernel_laws():
        if n == 3 and (law.kind == "discrete" or "rademacher" in str(law.describe())):
            continue  # atoms make degenerate replicates likely at n = 3; covered below
        rep = ec.run_clt_experiment(ec.ExperimentConfig(law, n=n, reps=reps, seed=8))
        block = seen.pop() * math.sqrt(rep.results["predicted_sigma2"])
        rho_true = rep.results["rho_true"]
        loop = np.array([math.sqrt(n) * (ec.compute_rho_n(law.sample(n, derive_rng(8, i)))
                                         - rho_true) for i in range(reps)])
        # relative to the values' scale: single values can sit near 0
        assert np.abs(block - loop).max() <= 1e-12 * np.abs(loop).max(), law.describe()


def test_lemma1_values_match_per_replicate_gn_eval(monkeypatch):
    seen = _captured_ks_inputs(monkeypatch)
    cos1 = ec.StatFunction(lambda x, y: np.cos(x), "cos(pi1)")
    fs = [ec.pi1, ec.pi2, ec.p, ec.pi1 ** 2 - 0.5 * ec.pi2, cos1]
    n, reps = 101, 350
    laws = _kernel_laws()
    for law in [laws[k] for k in (0, 3, 9, 10, 11, 12)]:
        rep = ec.run_lemma1_experiment(fs, ec.ExperimentConfig(law, n=n, reps=reps, seed=4))
        # ks_statistic saw G_n(f_j) / sd_j for each coordinate that is not degenerate
        live = [j for j in range(len(fs)) if j not in rep.results["degenerate_coordinates"]]
        sds = np.sqrt(np.diag(rep.results["predicted_cov"]))[live]
        assert len(seen) == len(live)
        block = np.column_stack([v * sd for v, sd in zip(seen, sds)])
        seen.clear()
        means = [law.expectation(fs[j]) for j in live]
        loop = np.array([[ec.gn_eval(s, fs[j], mu) for j, mu in zip(live, means)]
                         for s in (law.sample(n, derive_rng(4, i)) for i in range(reps))])
        assert np.abs(block - loop).max() <= 1e-12 * np.abs(loop).max(), law.describe()


def _per_replicate_failure(law, n, seed, reps, evaluate):
    """The message a replicate-by-replicate loop over single samples gives."""
    for i in range(reps):
        try:
            evaluate(law.sample(n, derive_rng(seed, i)))
        except ec.EmpcalcError as exc:
            return f"replicate {i} failed: {exc}"
    return None


@pytest.mark.parametrize("rows", [1, 3, 6])
def test_degenerate_replicate_in_later_block_keeps_its_index(monkeypatch, rows):
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 10 * rows)  # at n = 10
    law = ec.IndependentLaw("rademacher", "uniform_std")  # P(degenerate) = 1/512
    expected = _per_replicate_failure(law, 10, 6, 5000, ec.compute_rho_n)
    assert expected is not None and int(expected.split()[1]) >= 12
    with pytest.raises(ec.SimulationError) as info:
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=10, reps=5000, seed=6))
    assert str(info.value) == expected
    assert expected.endswith("degenerated marginal")
    assert isinstance(info.value.__cause__, ec.DegenerateSampleError)


def test_first_of_many_failing_replicates_in_a_block_is_reported():
    # at n = 2 half the rademacher replicates are degenerate, so one block
    # holds many failing rows
    law = ec.IndependentLaw("rademacher", "rademacher")
    for seed in range(6):
        expected = _per_replicate_failure(law, 2, seed, 100, ec.compute_rho_n)
        with pytest.raises(ec.SimulationError) as info:
            ec.run_clt_experiment(ec.ExperimentConfig(law, n=2, reps=100, seed=seed))
        assert str(info.value) == expected


class _CappedGaussian(ec.GaussianLaw):
    """Gaussian whose draws above 3 become +inf: a law with non-finite draws."""

    def draw_block(self, rngs, n):
        xs, ys = super().draw_block(rngs, n)
        xs[xs > 3.0] = np.inf
        return xs, ys


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_draw_reports_replicate_and_observation(monkeypatch):
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 60)  # 3 rows at n = 20
    law = _CappedGaussian(0.2)
    expected = _per_replicate_failure(law, 20, 2, 2000, ec.compute_rho_n)
    assert expected is not None and int(expected.split()[1]) >= 3
    assert "non-finite observation at index" in expected
    with pytest.raises(ec.SimulationError) as info:
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=20, reps=2000, seed=2))
    assert str(info.value) == expected
    assert isinstance(info.value.__cause__, ec.InputFormatError)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lemma1_non_finite_draw_is_reported_before_non_finite_value(monkeypatch):
    # a non-finite draw also makes f non-finite; the draw check runs first
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 60)
    law = _CappedGaussian(0.2)
    expected = _per_replicate_failure(
        law, 20, 2, 2000, lambda s: [ec.gn_eval(s, f, 0.0) for f in (ec.pi1, ec.pi2)])
    assert "non-finite observation at index" in expected
    with pytest.raises(ec.SimulationError) as info:
        ec.run_lemma1_experiment([ec.pi1, ec.pi2],
                                 ec.ExperimentConfig(law, n=20, reps=2000, seed=2))
    assert str(info.value) == expected


class _SignedInfGaussian(ec.GaussianLaw):
    """Gaussian whose rows with a first x draw above 1.5 hold +inf in x and
    -inf in x (their x sum is nan) or in y (the sums are +inf and -inf)."""

    def __init__(self, rho, minus_inf_in_y):
        super().__init__(rho)
        self.minus_inf_in_y = minus_inf_in_y

    def draw_block(self, rngs, n):
        xs, ys = super().draw_block(rngs, n)
        rows = xs[:, 0] > 1.5
        xs[rows, 3] = np.inf
        (ys if self.minus_inf_in_y else xs)[rows, 5] = -np.inf
        return xs, ys


class _OverflowGaussian(ec.GaussianLaw):
    """Gaussian whose rows with a first x draw above 1.5 become finite
    draws near 1e308, whose sum overflows."""

    def draw_block(self, rngs, n):
        xs, ys = super().draw_block(rngs, n)
        rows = xs[:, 0] > 1.5
        xs[rows] = 1e307 * (10.0 + np.clip(xs[rows], -5.0, 5.0))
        return xs, ys


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("minus_inf_in_y", [False, True])
def test_row_with_both_infinities_fails_without_warning(monkeypatch, minus_inf_in_y):
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 60)  # 3 rows at n = 20
    law = _SignedInfGaussian(0.2, minus_inf_in_y)
    expected = _per_replicate_failure(law, 20, 2, 2000, ec.compute_rho_n)
    assert expected is not None and int(expected.split()[1]) >= 3
    assert expected.endswith("non-finite observation at index 3")
    cfg = ec.ExperimentConfig(law, n=20, reps=2000, seed=2)
    with pytest.raises(ec.SimulationError) as info:
        ec.run_clt_experiment(cfg)
    assert str(info.value) == expected
    assert isinstance(info.value.__cause__, ec.InputFormatError)
    with pytest.raises(ec.SimulationError) as info:
        ec.run_lemma1_experiment([ec.pi1, ec.pi2], cfg)
    assert str(info.value) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_row_whose_finite_draws_overflow_passes_the_draw_check(monkeypatch):
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 60)
    law = _OverflowGaussian(0.2)
    cfg = ec.ExperimentConfig(law, n=20, reps=2000, seed=2)
    streams = BlockStreams(2, 2000)
    rows = simulate._BLOCK_ELEMENTS // 20
    overflowing = [lo + int(row) for lo in range(0, 2000, rows)
                   for row in np.flatnonzero(
                       law.draw_block(streams[lo:lo + rows], 20)[0][:, 0] > 1e300)]
    # only the rows whose sums are not finite are drawn again as samples:
    # each passes the draw check, and the loop reduces every block
    explained = []
    blocks = _loop_blocks(cfg, explained.append)
    assert len(blocks) == -(-2000 // rows)
    assert all(np.isfinite(xs).all() for xs, *_ in blocks)
    sums = np.concatenate([sx for _, _, sx, _ in blocks])
    assert np.flatnonzero(~np.isfinite(sums)).tolist() == overflowing != []
    assert all(np.array_equal(s.xs, law.sample(20, derive_rng(2, i)).xs)
               for i, s in zip(overflowing, explained, strict=True))
    # compute_rho_n's mean overflows on the first, and the experiment
    # names it by that typed error, with no warning before either
    i = overflowing[0]
    reason = "inconsistent moment set: non-finite mu_x"
    with pytest.raises(ec.MomentError, match=f"^{reason}$"):
        ec.compute_rho_n(law.sample(20, derive_rng(2, i)))
    with pytest.raises(ec.SimulationError, match=f"^replicate {i} failed: {reason}$"):
        ec.run_clt_experiment(cfg)
    # G_n(pi2) reads only the untouched ys: no warning, the plain law's report
    plain = ec.ExperimentConfig(ec.GaussianLaw(0.2), n=20, reps=2000, seed=2)
    assert (ec.run_lemma1_experiment([ec.pi2], cfg).to_dict()
            == ec.run_lemma1_experiment([ec.pi2], plain).to_dict())


def test_lemma1_non_finite_value_reports_first_replicate(monkeypatch):
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 60)
    # polynomial mean (exact 0), but the callable is infinite above 3.5
    capped = ec.StatFunction(lambda x, y: np.where(x > 3.5, np.inf, x), "capped", {(1, 0): 1.0})
    fs = [ec.pi2, capped]
    law = ec.GaussianLaw(0.2)
    expected = _per_replicate_failure(
        law, 20, 6, 2000, lambda s: [ec.gn_eval(s, f, law.expectation(f)) for f in fs])
    assert expected is not None and int(expected.split()[1]) >= 6
    with pytest.raises(ec.SimulationError) as info:
        ec.run_lemma1_experiment(fs, ec.ExperimentConfig(law, n=20, reps=2000, seed=6))
    assert str(info.value) == expected
    assert str(info.value).endswith("non-finite evaluation of capped")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_draws_whose_sums_overflow_name_the_replicate():
    law = _OverflowGaussian(0.2)
    cfg = ec.ExperimentConfig(law, n=20, reps=2000, seed=2)
    expected = _per_replicate_failure(law, 20, 2, 2000, ec.compute_rho_n)
    # compute_rho_n fails as estimate does, on the sample's moment set
    assert expected.startswith("replicate 6 failed: inconsistent moment set: non-finite")
    with pytest.raises(ec.SimulationError) as info:
        ec.run_clt_experiment(cfg)
    assert str(info.value) == expected
    assert isinstance(info.value.__cause__, ec.MomentError)
    fs = [ec.pi2, ec.pi1]
    expected = _per_replicate_failure(
        law, 20, 2, 2000, lambda s: [ec.gn_eval(s, f, law.expectation(f)) for f in fs])
    assert expected.startswith("replicate 6 failed: G_n(pi1) is not finite")
    with pytest.raises(ec.SimulationError) as info:
        ec.run_lemma1_experiment(fs, cfg)
    assert str(info.value) == expected


def _raise_on(law, n, seed, k, real):
    """``real``, but raising a sentinel error on replicate k's sample."""
    target = law.sample(n, derive_rng(seed, k))

    def patched(sample, *args):
        if np.array_equal(sample.xs, target.xs) and np.array_equal(sample.ys, target.ys):
            raise ec.EvaluationError("sentinel")
        return real(sample, *args)

    return patched


def test_clt_failing_block_is_explained_by_compute_rho_n(monkeypatch):
    law = ec.IndependentLaw("rademacher", "uniform_std")
    k = int(_per_replicate_failure(law, 10, 6, 5000, ec.compute_rho_n).split()[1])
    # blocks of k - 1 rows: the first flagged replicate, k, is the second
    # row of the second block, and compute_rho_n's message names the run's failure
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 10 * (k - 1))
    monkeypatch.setattr(simulate, "compute_rho_n", _raise_on(law, 10, 6, k, ec.compute_rho_n))
    with pytest.raises(ec.SimulationError) as info:
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=10, reps=5000, seed=6))
    assert k > 1 and str(info.value) == f"replicate {k} failed: sentinel"


def test_lemma1_failing_block_is_explained_by_gn_eval(monkeypatch):
    capped = ec.StatFunction(lambda x, y: np.where(x > 3.5, np.inf, x), "capped", {(1, 0): 1.0})
    fs = [ec.pi2, capped]
    law = ec.GaussianLaw(0.2)
    k = int(_per_replicate_failure(
        law, 20, 6, 2000, lambda s: [ec.gn_eval(s, f, law.expectation(f)) for f in fs]
    ).split()[1])
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 20 * (k - 1))
    monkeypatch.setattr(simulate, "gn_eval", _raise_on(law, 20, 6, k, ec.gn_eval))
    with pytest.raises(ec.SimulationError) as info:
        ec.run_lemma1_experiment(fs, ec.ExperimentConfig(law, n=20, reps=2000, seed=6))
    assert k > 1 and str(info.value) == f"replicate {k} failed: sentinel"


def test_flagged_block_whose_replicates_pass_alone_fails_the_run(monkeypatch):
    # the kernel flags the degenerate rows; compute_rho_n accepts every sample,
    # so the first flagged replicate fails the run alone
    law = ec.IndependentLaw("rademacher", "rademacher")
    expected = _per_replicate_failure(law, 2, 0, 100, ec.compute_rho_n)
    assert expected == "replicate 2 failed: degenerated marginal"
    monkeypatch.setattr(simulate, "compute_rho_n", lambda s: 0.0)
    with pytest.raises(ec.SimulationError,
                       match=r"^replicate 2 failed in its block only$"):
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=2, reps=100, seed=0))
    # a reduction that flags rows 5 and 9 of the second block, of rows 327 to 653 at n = 100
    blocks, explained = [], []

    def flag_second(xs, ys, sx, sy):
        blocks.append(len(xs))
        failed = np.zeros(len(xs), bool)
        failed[[5, 9]] = len(blocks) == 2
        return np.zeros(len(xs)), failed

    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.3), n=100, reps=1000, seed=1)
    with pytest.raises(ec.SimulationError,
                       match=r"^replicate 332 failed in its block only$"):
        simulate._replicates(cfg, flag_second, explained.append)
    assert blocks == [327, 327]
    assert len(explained) == 1
    assert np.array_equal(explained[0].xs, cfg.law.sample(100, derive_rng(1, 332)).xs)


def test_a_constant_column_is_degenerate_in_the_kernel():
    # replicate 1314 draws twenty x = 0.1: its row mean is off by rounding, so
    # the centred sum of squares is 3.9e-33, not 0, and the kernel's rho_n
    # would be 3.3e-17; the row is flagged, as compute_rho_n refuses it
    law = ec.DiscreteLaw([0.1, 0.7, 0.1], [1.0, -0.4, 0.3], [0.45, 0.25, 0.3])
    expected = _per_replicate_failure(law, 20, 0, 2000, ec.compute_rho_n)
    assert expected == "replicate 1314 failed: degenerated marginal"
    with pytest.raises(ec.SimulationError) as info:
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=20, reps=2000, seed=0))
    assert str(info.value) == expected
    assert isinstance(info.value.__cause__, ec.DegenerateSampleError)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_product_of_sums_of_squares_warns_nothing():
    # at scale 1e76 sxx * syy overflows, as compute_rho_n's moments do not:
    # the kernel roots each sum apart there, and the run ends with no warning
    def law(s):
        return ec.DiscreteLaw([s * x for x in (0.1, 1.3, -0.7, 2.2)],
                              [s * y for y in (1.0, -0.4, 0.3, 0.9)], [0.1, 0.3, 0.35, 0.25])

    got, want = (ec.run_clt_experiment(ec.ExperimentConfig(law(s), n=2000, reps=100, seed=1))
                 .results["empirical_variance"] for s in (1e76, 1.0))
    assert abs(got - want) <= 1e-12 * want, (got, want)


@pytest.mark.parametrize("law, n, seed, reps, expected", [
    (ec.IndependentLaw("rademacher", "uniform_std"), 10, 6, 5000,
     "replicate 471 failed: degenerated marginal"),
    (ec.IndependentLaw("rademacher", "rademacher"), 2, 0, 100,
     "replicate 2 failed: degenerated marginal"),
    (ec.DiscreteLaw([0.1, 0.7, 0.1], [1.0, -0.4, 0.3], [0.45, 0.25, 0.3]), 20, 0, 2000,
     "replicate 1314 failed: degenerated marginal"),
])
def test_a_failing_run_draws_one_sample_again(monkeypatch, law, n, seed, reps, expected):
    # only the first flagged replicate is drawn again, not the rows before it
    drawn = []
    real = law.sample
    monkeypatch.setattr(law, "sample", lambda n, rng: drawn.append(n) or real(n, rng))
    with pytest.raises(ec.SimulationError, match=f"^{expected}$"):
        ec.run_clt_experiment(ec.ExperimentConfig(law, n=n, reps=reps, seed=seed))
    assert drawn == [n]


def test_lemma1_rejects_function_of_wrong_shape():
    scalar = ec.StatFunction(lambda x, y: 1.0, "one", {(0, 0): 1.0})
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.2), n=50, reps=100, seed=1)
    with pytest.raises(ec.SimulationError,
                       match=r"replicate 0 failed: one returned shape \(\), expected \(100, 50\)"):
        ec.run_lemma1_experiment([ec.pi1, scalar], cfg)


def test_lemma1_rejects_a_non_polynomial_function_of_the_wrong_shape():
    # the quadrature evaluates it first, on the 48 x 48 atoms of its coarse rule
    one = ec.StatFunction(lambda x, y: 1.0, "one")
    cfg = ec.ExperimentConfig(ec.GaussianLaw(0.5), n=50, reps=100, seed=1)
    with pytest.raises(ec.EvaluationError,
                       match=r"^one returned shape \(\), expected \(2304,\)$"):
        ec.run_lemma1_experiment([ec.pi1, one], cfg)

def test_lemma1_with_non_polynomial_function_draws_nothing_for_the_prediction(monkeypatch):
    law = ec.GaussianLaw(0.5)
    sizes = []
    real = law.sample

    def counting(n, rng):
        sizes.append(n)
        return real(n, rng)

    monkeypatch.setattr(law, "sample", counting)
    cos1 = ec.StatFunction(lambda x, y: np.cos(x), "cos(pi1)")
    rep = ec.run_lemma1_experiment([ec.pi1, ec.pi2, ec.p, cos1],
                                   ec.ExperimentConfig(law, n=100, reps=100, seed=3))
    assert sizes == []
    assert rep.results["predicted_cov"][3][3] == pytest.approx(
        (1.0 - math.exp(-1.0)) ** 2 / 2.0, abs=1e-13)
