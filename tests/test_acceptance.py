"""The seven acceptance criteria, one test each.

Every test prints a single machine-grepable verdict line; run pytest with
-s (or read captured stdout) to see them.  All criteria run from the
default root seed, so this file is deterministic end to end.
"""

import time

from empcalc.acceptance import ALL_CRITERIA, DEFAULT_SEED


def run_criterion(number):
    name = ALL_CRITERIA[number].__name__
    start = time.perf_counter()
    checks = ALL_CRITERIA[number](DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    passed = all(c.passed for c in checks)
    detail = "; ".join(
        f"{c.name}={c.value:.6g} (limit {c.threshold:g})"
        for c in checks
        if c.value is not None and c.threshold is not None)
    print(f"{name}: {'PASS' if passed else 'FAIL'}"
          f" in {elapsed:.2f}s" + (f" | {detail}" if detail else ""))
    assert passed, (
        f"{name} failed: "
        + "; ".join(f"{c.name}={c.value} vs {c.threshold}"
                    for c in checks if not c.passed))
    return checks


def test_criterion_1_gaussian_closed_form():
    # sigma^2 = (1 - rho^2)^2 under exact Gaussian moments, 1e-12 absolute
    run_criterion(1)


def test_criterion_2_normal_limit_of_rho_n():
    # gaussian(0.5), n=2000, reps=5000: variance within 10%, KS below 0.03
    checks = run_criterion(2)
    assert [c.passed for c in checks if c.name == "runtime_under_60s"] == [True]


def test_criterion_3_independent_marginal_pairings():
    # all 10 unordered pairings of the four standardized marginals
    run_criterion(3)


def test_criterion_4_expansion_pipeline_vs_closed_form():
    # 50 random valid moment sets: pipeline variance equals the formula to 1e-9
    run_criterion(4)


def test_criterion_5_joint_normality_of_gn_vectors():
    # fs = (pi1, pi2, p) under gaussian(0.5): covariance entries within 0.05
    run_criterion(5)


def test_criterion_6_exact_invariants():
    # linearity, location-scale, div vs mul-reciprocal, CSV round trip,
    # thread-budget invariance
    run_criterion(6)


def test_criterion_7_zero_test_calibration():
    # level-0.05 rejection frequency within 0.05 +- 0.02 over 1000 runs
    run_criterion(7)


def test_all_criteria_are_covered():
    assert sorted(ALL_CRITERIA) == [1, 2, 3, 4, 5, 6, 7]
