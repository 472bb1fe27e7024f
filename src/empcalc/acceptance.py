"""The package's acceptance suite: seven self-contained criteria.

Each criterion function runs one verifiable claim end to end and returns
its list of :class:`~empcalc.io.CheckResult`, which carry the measured
values and the pre-registered thresholds.  A criterion's name is its
function name without the ``criterion_<k>_`` prefix.  The suite is
exposed both to pytest (one test per criterion) and to the command line
(``empcalc check``), through :func:`run_acceptance`, which returns the
``check`` :class:`~empcalc.io.Report`.

Criteria with wall-clock limits record the pass/fail verdict but not the
measured seconds inside the checks; reports must be byte-identical for a
fixed seed, and timings are not.  :func:`run_acceptance` prints each
criterion's runtime to stderr instead.

All randomness is derived from one root seed through keyed streams, so
two runs with the same seed produce identical results regardless of
the criterion subset.  Every criterion takes the seed.
"""

from __future__ import annotations

import io as _io
import sys
import time
from itertools import combinations_with_replacement

import numpy as np

from .correlation import (compute_rho_n, correlation_expansion, rho_from_moments,
                          sigma_squared, test_zero_correlation)
from .empirical import asymptotic_variance, gn_eval
from .errors import InputFormatError
from .expansion import AsymptoticExpansion, delta
from .functions import p, pi1, pi2
from .io import CheckResult, Report, read_paired_csv, write_paired_csv
from .laws import MARGINALS, DiscreteLaw, GaussianLaw, IndependentLaw
from .sample import PairedSample
from .simulate import ExperimentConfig, run_clt_experiment, run_lemma1_experiment
from .streams import derive_rng, derive_seed

DEFAULT_SEED = 42

PAIRING_MARGINALS = ("standard_normal", "uniform_std", "exponential_std", "rademacher")


def criterion_1_gaussian_closed_form(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """sigma_squared under exact Gaussian moments equals (1 - rho^2)^2."""
    start = time.perf_counter()
    grid = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.8)
    worst = 0.0
    for rho in grid:
        got = sigma_squared(GaussianLaw(rho).bivariate_moments())
        worst = max(worst, abs(got - (1.0 - rho ** 2) ** 2))
    elapsed = time.perf_counter() - start
    return [CheckResult("max_abs_error_on_grid", worst, 1e-12, worst <= 1e-12),
            CheckResult("runtime_under_1s", None, 1.0, elapsed < 1.0)]


def criterion_2_clt_gaussian(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """sqrt(n)(rho_n - rho) matches N(0, 0.5625) for gaussian(0.5)."""
    start = time.perf_counter()
    cfg = ExperimentConfig(law=GaussianLaw(0.5), n=2000, reps=5000,
                           seed=derive_seed(seed, 2))
    report = run_clt_experiment(cfg, variance_rtol=0.10, ks_tol=0.03)
    elapsed = time.perf_counter() - start
    return report.checks + [CheckResult("runtime_under_60s", None, 60.0, elapsed < 60.0)]


def criterion_3_independent_pairings(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """All marginal pairings give sqrt(n) rho_n close to N(0, 1)."""
    checks = []
    pairs = list(combinations_with_replacement(PAIRING_MARGINALS, 2))
    for idx, (mx, my) in enumerate(pairs):
        cfg = ExperimentConfig(law=IndependentLaw(mx, my), n=2000, reps=5000,
                               seed=derive_seed(seed, 3, idx))
        report = run_clt_experiment(cfg, variance_rtol=0.10, ks_tol=0.03)
        for c in report.checks:
            checks.append(CheckResult(f"{c.name}[{mx},{my}]", c.value,
                                      c.threshold, c.passed))
    return checks


def _random_discrete_law(rng: np.random.Generator) -> DiscreteLaw:
    """A non-degenerate finitely supported law with moderate correlation."""
    for _ in range(200):
        k = int(rng.integers(6, 13))
        xs = rng.uniform(-2.0, 2.0, k) * rng.uniform(0.5, 2.0) + rng.uniform(-3.0, 3.0)
        ys = rng.uniform(-2.0, 2.0, k) * rng.uniform(0.5, 2.0) + rng.uniform(-3.0, 3.0)
        w = rng.random(k) + 0.1
        law = DiscreteLaw(xs, ys, w / w.sum())
        m = law.bivariate_moments()
        if min(m.var_x, m.var_y) >= 1e-3 and abs(rho_from_moments(m)) <= 0.95:
            return law
    raise RuntimeError("could not draw a usable discrete law in 200 attempts")


def criterion_4_pipeline_vs_closed_form(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Delta-method pipeline and closed-form variance agree on random laws.

    The pipeline route integrates its influence by atom enumeration
    through the function callable; the closed form is pure moment
    arithmetic.  The two share no computation beyond the moment set.
    """
    rng = derive_rng(seed, 4)
    worst = 0.0
    for _ in range(50):
        law = _random_discrete_law(rng)
        m = law.bivariate_moments()
        via_pipeline = asymptotic_variance(correlation_expansion(m), law)
        closed = sigma_squared(m)
        worst = max(worst, abs(via_pipeline - closed) / max(abs(closed), 1e-30))
    return [CheckResult("max_rel_difference", worst, 1e-9, worst <= 1e-9)]


def criterion_5_lemma1_joint(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """(G_n(pi1), G_n(pi2), G_n(p)) is jointly normal with the Gram matrix."""
    law = GaussianLaw(0.5)
    cfg = ExperimentConfig(law=law, n=1000, reps=5000, seed=derive_seed(seed, 5))
    report = run_lemma1_experiment([pi1, pi2, p], cfg, cov_atol=0.05, ks_tol=0.03)
    # frozen exact Gram matrix for the standardized Gaussian at rho = 0.5
    expected = np.array([[1.0, 0.5, 0.0],
                         [0.5, 1.0, 0.0],
                         [0.0, 0.0, 1.25]])
    gram_err = float(np.abs(np.asarray(report.results["predicted_cov"]) - expected).max())
    return report.checks + [CheckResult("predicted_gram_exact", gram_err, 1e-12,
                                        gram_err <= 1e-12)]


def _check_linearity(seed: int) -> CheckResult:
    law = GaussianLaw(0.3)
    s = law.sample(1000, derive_rng(seed, 6, 1))
    f = p
    g = pi1 ** 2 - 2.0 * pi2
    mu_f = law.expectation(f)
    mu_g = law.expectation(g)
    a, b = 2.0, -1.5
    combined = gn_eval(s, a * f + b * g, a * mu_f + b * mu_g)
    split = a * gn_eval(s, f, mu_f) + b * gn_eval(s, g, mu_g)
    rel = abs(combined - split) / max(1.0, abs(split))
    return CheckResult("gn_linearity_rel_error", rel, 1e-10, rel <= 1e-10)


def _check_location_scale(seed: int) -> CheckResult:
    s = GaussianLaw(0.3).sample(500, derive_rng(seed, 6, 2))
    base = compute_rho_n(s)
    moved = compute_rho_n(PairedSample(2.5 * s.xs - 1.0, 0.7 * s.ys + 3.0))
    flipped = compute_rho_n(PairedSample(-2.0 * s.xs + 0.5, s.ys))
    worst = max(abs(moved - base), abs(flipped + base))
    return CheckResult("location_scale_abs_error", worst, 1e-12, worst <= 1e-12)


def _check_div_vs_mul_reciprocal() -> CheckResult:
    e1 = AsymptoticExpansion(2.0, p + 0.5 * pi1)
    e2 = AsymptoticExpansion(3.0, pi2 ** 2 - pi1)
    direct = e1 / e2
    recip = e1 * delta(lambda t: 1.0 / t, lambda t: (-1.0 / t ** 2,), e2)
    grid = np.linspace(-3.0, 3.0, 10)
    gx, gy = np.meshgrid(grid, grid)
    worst = abs(direct.value - recip.value)
    worst = max(worst, float(np.abs(direct.influence(gx, gy)
                                    - recip.influence(gx, gy)).max()))
    return CheckResult("div_vs_mul_reciprocal", worst, 1e-10, worst <= 1e-10)


def _check_csv_round_trip(seed: int) -> CheckResult:
    rng = derive_rng(seed, 6, 4)
    xs = np.concatenate([rng.standard_normal(50) * 10.0 ** rng.integers(-12, 13, 50),
                         [0.0, 1.0 / 3.0, -2.5e-8, 1e15, -1e-15,
                          -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]])
    ys = np.concatenate([rng.standard_normal(50) * 10.0 ** rng.integers(-12, 13, 50),
                         [1.0, -7.0, 3.141592653589793, -1e15, 1e-15,
                          5e-324, -0.0, -1.7976931348623157e308, 1.7976931348623157e308]])
    first = _io.StringIO()
    write_paired_csv(PairedSample(xs, ys), first)
    second = _io.StringIO()
    write_paired_csv(read_paired_csv(_io.StringIO(first.getvalue())), second)
    ok = first.getvalue() == second.getvalue()
    return CheckResult("csv_round_trip_byte_exact", float(ok), 1.0, ok)


def criterion_6_exact_invariants(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Deterministic identities: linearity, invariance, algebra, round trips."""
    return [
        _check_linearity(seed),
        _check_location_scale(seed),
        _check_div_vs_mul_reciprocal(),
        _check_csv_round_trip(seed),
    ]


def criterion_7_test_calibration(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The zero-correlation z-test rejects at its nominal 5% level."""
    law = IndependentLaw("standard_normal", "standard_normal")
    runs = 1000
    rejections = 0
    for i in range(runs):
        s = law.sample(500, derive_rng(seed, 7, i))
        if test_zero_correlation(s).p_value < 0.05:
            rejections += 1
    frac = rejections / runs
    err = abs(frac - 0.05)
    return [CheckResult("rejection_rate_error", err, 0.02, err <= 0.02)]


ALL_CRITERIA = {
    1: criterion_1_gaussian_closed_form,
    2: criterion_2_clt_gaussian,
    3: criterion_3_independent_pairings,
    4: criterion_4_pipeline_vs_closed_form,
    5: criterion_5_lemma1_joint,
    6: criterion_6_exact_invariants,
    7: criterion_7_test_calibration,
}


def run_acceptance(numbers=None, seed: int = DEFAULT_SEED) -> Report:
    """Run the selected criteria (all by default) in the order given, each once.

    Returns the ``check`` report: per criterion its number, name, verdict
    and checks, and every check again at the top level, prefixed with
    ``criterion_<k>.``.  Each criterion's verdict and runtime go to
    stderr as it finishes.
    """
    numbers = sorted(ALL_CRITERIA) if numbers is None else list(numbers)
    for i, num in enumerate(numbers):
        if num not in ALL_CRITERIA:
            raise InputFormatError(f"unknown acceptance criterion {num}; valid: 1..7")
        if num in numbers[:i]:
            raise InputFormatError(f"acceptance criterion {num} is given twice")
    criteria, checks = [], []
    for num in numbers:
        fn = ALL_CRITERIA[num]
        name = fn.__name__.split("_", 2)[2]
        start = time.perf_counter()
        own = fn(seed)
        elapsed = time.perf_counter() - start
        passed = all(c.passed for c in own)
        print(f"criterion {num} ({name}): {'pass' if passed else 'FAIL'} in {elapsed:.2f}s",
              file=sys.stderr)
        criteria.append({"number": num, "name": name, "pass": passed,
                         "checks": [c.to_dict() for c in own]})
        checks += [CheckResult(f"criterion_{num}.{c.name}", c.value, c.threshold, c.passed)
                   for c in own]
    return Report("check", {"criteria": numbers},
                  {"criteria": criteria, "all_pass": all(c["pass"] for c in criteria)},
                  checks, seed)
