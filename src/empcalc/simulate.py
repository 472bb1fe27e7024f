"""Monte Carlo verification of the normal limits.

Two experiment drivers:

* :func:`run_clt_experiment` draws ``reps`` independent samples of size
  ``n``, computes sqrt(n)(rho_n - rho_true) for each, and compares the
  replicate distribution against the predicted N(0, sigma^2): empirical
  variance within a relative tolerance, and Kolmogorov-Smirnov distance
  of the sigma-standardized replicates against the standard normal.

* :func:`run_lemma1_experiment` does the joint-normality analogue for a
  finite family of functions: per replicate it evaluates the centered
  scaled empirical averages (G_n(f_1), .., G_n(f_k)) with exact means,
  then compares the empirical covariance matrix against the predicted
  Gram matrix entrywise and each nondegenerate coordinate against its
  normal marginal.

Both compare replicates with the standard normal through
:func:`ks_statistic` and :func:`standard_normal_cdf`, which is
0.5 erfc(-x / sqrt(2)) from ``math.erfc``, as the z-test's tail is.

Replicates run in blocks.  A block holds about 32k draws per coordinate
(rows = 32768 // n replicates, at least one), so block boundaries depend
only on (n, reps).  Replicate i draws its values from the generator
stream derived from (seed, i), never a shared sequential generator, in the
order a single ``law.sample`` call takes them, into row i of its block.
A run hashes the streams of all its replicates once
(:class:`BlockStreams`, 32 bytes per replicate) and each block draws from
its slice of them, each row getting its own generator object, so worker
threads never share one.  The law transforms the whole block at once and
rho_n or G_n(f) is reduced across the block.  The row sums that centre
rho_n also check the draws: a non-finite draw makes its row's sum
non-finite, so only rows with a non-finite sum are checked draw by draw.
Results are therefore identical for any worker count: workers take whole
blocks, which are stacked in replicate order.  A failing check names the
first failing replicate, with the message the per-sample routines
(``PairedSample``, ``compute_rho_n``, ``gn_eval``) would give.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .correlation import population_rho, sigma_squared
from .empirical import gamma_matrix
from .errors import (DegenerateSampleError, EmpcalcError, EvaluationError,
                     InputFormatError, SimulationError)
from .functions import StatFunction
from .io import CheckResult, Report
from .laws import BivariateLaw
from .streams import BlockStreams

DEFAULT_VARIANCE_RTOL = 0.10
DEFAULT_KS_TOL = 0.03

# a predicted variance below this cannot be used to standardize replicates
DEGENERATE_VARIANCE_FLOOR = 1e-12

# draws per coordinate in one block of replicates; rows = this // n
_BLOCK_ELEMENTS = 32_768


@dataclass(frozen=True)
class ExperimentConfig:
    """What to simulate: law, sample size, replicate count, seed, workers.

    ``threads`` (default 1) is how many blocks of replicates run side by
    side.  It never influences results, only wall-clock time.
    """

    law: BivariateLaw
    n: int
    reps: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.law, BivariateLaw):
            raise InputFormatError("law must be a BivariateLaw")
        for name in ("n", "reps", "seed", "threads"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InputFormatError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 2:
            raise InputFormatError(f"n ≥ 2 required, got {self.n}")
        if self.reps < 100:
            raise InputFormatError(f"reps ≥ 100 required, got {self.reps}")
        if self.threads < 1:
            raise InputFormatError(f"threads must be >= 1, got {self.threads}")
        if self.seed < 0:
            raise InputFormatError(f"seed must be >= 0, got {self.seed}")


_erfc = np.frompyfunc(math.erfc, 1, 1)


def standard_normal_cdf(x):
    """Distribution function of N(0, 1), 0.5 erfc(-x / sqrt(2)); scalar in, float out."""
    out = 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)
    return float(out) if out.ndim == 0 else out


def ks_statistic(values, cdf: Callable) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF.

    With v_(1) <= ... <= v_(m) sorted and F the reference CDF,

        D = max_i max(|i/m - F(v_(i))|, |F(v_(i)) - (i-1)/m|).
    """
    v = np.sort(np.asarray(values, dtype=float).reshape(-1))
    m = v.size
    if m == 0:
        raise EvaluationError("empty sample")
    f_vals = np.asarray(cdf(v), dtype=float)
    if not np.all(np.isfinite(f_vals)):
        raise EvaluationError("non-finite evaluation of the reference CDF")
    i = np.arange(1, m + 1, dtype=float)
    return float(np.maximum(np.abs(i / m - f_vals),
                            np.abs(f_vals - (i - 1) / m)).max())


def _blocks(n: int, reps: int) -> list[tuple[int, int]]:
    """The (lo, hi) replicate ranges of a run; they depend on (n, reps) only."""
    rows = max(1, _BLOCK_ELEMENTS // n)
    return [(lo, min(lo + rows, reps)) for lo in range(0, reps, rows)]


def _map_replicates(kernel: Callable[[int, int], np.ndarray], n: int, reps: int,
                    threads: int) -> np.ndarray:
    """Run kernel(lo, hi) over the replicate blocks, stacked in index order."""
    blocks = _blocks(n, reps)
    if threads <= 1:
        return np.concatenate([kernel(lo, hi) for lo, hi in blocks])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(lambda b: kernel(*b), blocks)))


def _raise_first_failure(lo: int, failures) -> None:
    """Raise SimulationError for the first failing replicate of a block.

    ``failures`` lists (bad_rows, error) pairs in the order one replicate's
    checks run; ``error(row)`` builds the inner EmpcalcError.  Of the checks
    the first failing row fails, the earliest is reported.
    """
    first = None
    for bad, error in failures:
        rows = np.flatnonzero(bad)
        if rows.size and (first is None or rows[0] < first[0]):
            first = (int(rows[0]), error)
    if first is not None:
        row, error = first
        exc = error(row)
        raise SimulationError(f"replicate {lo + row} failed: {exc}") from exc


def _draw_replicates(cfg: ExperimentConfig, streams: BlockStreams):
    """A block of replicates, one per stream: (xs, ys), their row sums
    (sx, sy) and the non-finite draw check.

    A non-finite draw makes its row's sum non-finite, so only the rows
    whose sum is not finite are checked draw by draw; a row of finite
    draws whose sum overflows passes.  The sums raise no floating-point
    warning (a row holding +inf and -inf sums to nan).  Everything
    returned stops before the first replicate with a non-finite draw: no
    later replicate can fail first, so later checks need only the rows
    before it.
    """
    xs, ys = cfg.law.draw_block(streams, cfg.n)
    with np.errstate(over="ignore", invalid="ignore"):
        sx = xs.sum(axis=1)
        sy = ys.sum(axis=1)
    flagged = np.flatnonzero(~(np.isfinite(sx) & np.isfinite(sy)))
    cut, index = len(xs), None
    if flagged.size:
        bad = ~(np.isfinite(xs[flagged]) & np.isfinite(ys[flagged]))
        bad_rows = bad.any(axis=1)
        if bad_rows.any():
            first = int(np.argmax(bad_rows))
            cut, index = int(flagged[first]), int(np.flatnonzero(bad[first])[0])
    # the check fails at the cut row alone, the first with a non-finite draw
    return xs[:cut], ys[:cut], sx[:cut], sy[:cut], (
        np.arange(len(xs)) == cut,
        lambda row: InputFormatError(f"non-finite observation at index {index}"))


def run_clt_experiment(cfg: ExperimentConfig,
                       variance_rtol: float = DEFAULT_VARIANCE_RTOL,
                       ks_tol: float = DEFAULT_KS_TOL) -> Report:
    """Check sqrt(n)(rho_n - rho) against its predicted normal limit.

    The prediction (rho_true and sigma^2) comes from the law's exact
    moment oracle, never from the simulated data.
    """
    law = cfg.law
    moments = law.bivariate_moments()
    rho_true = population_rho(moments)  # warns when the law is affine
    predicted = sigma_squared(moments)
    if predicted < DEGENERATE_VARIANCE_FLOOR:
        raise DegenerateSampleError(
            f"predicted asymptotic variance {predicted:g} is numerically zero; "
            "replicates cannot be standardized")
    n = cfg.n
    sqrt_n = math.sqrt(n)
    streams = BlockStreams(cfg.seed, (), 0, cfg.reps)

    def kernel(lo: int, hi: int) -> np.ndarray:
        # rho_n per row, as compute_rho_n takes it: centre on the means,
        # sum / n as numpy's mean divides (in place, the block is the
        # kernel's own), then sums of products
        dx, dy, sx, sy, nonfinite = _draw_replicates(cfg, streams[lo:hi])
        if not (np.isfinite(sx).all() and np.isfinite(sy).all()):
            # finite draws whose sum overflows: sum again, with the
            # warnings the means raise
            sx, sy = dx.sum(axis=1), dy.sum(axis=1)
        dx -= (sx / n)[:, np.newaxis]
        dy -= (sy / n)[:, np.newaxis]
        sxx = (dx * dx).sum(axis=1)
        syy = (dy * dy).sum(axis=1)
        _raise_first_failure(lo, [
            nonfinite,
            ((sxx <= 0.0) | (syy <= 0.0),
             lambda row: DegenerateSampleError("degenerated marginal"))])
        return sqrt_n * ((dx * dy).sum(axis=1) / np.sqrt(sxx * syy) - rho_true)

    t = _map_replicates(kernel, cfg.n, cfg.reps, cfg.threads)
    emp_mean = float(t.mean())
    emp_var = float(t.var(ddof=1))
    ks = ks_statistic(t / math.sqrt(predicted), standard_normal_cdf)
    var_rel_err = abs(emp_var - predicted) / predicted

    checks = [
        CheckResult("variance_rel_error", var_rel_err, variance_rtol,
                    var_rel_err <= variance_rtol),
        CheckResult("ks_distance", ks, ks_tol, ks <= ks_tol),
    ]
    return Report(
        "simulate",
        {"law": law.describe(), "n": cfg.n, "reps": cfg.reps,
         "variance_rtol": variance_rtol, "ks_tol": ks_tol},
        {"rho_true": rho_true,
         "predicted_sigma2": predicted,
         "empirical_mean": emp_mean,
         "empirical_variance": emp_var,
         "ks_distance": ks},
        checks, cfg.seed)


def run_lemma1_experiment(fs: Sequence[StatFunction], cfg: ExperimentConfig,
                          cov_atol: float = 0.05,
                          ks_tol: float = DEFAULT_KS_TOL) -> Report:
    """Check joint normality of (G_n(f_1), .., G_n(f_k)) against Gamma.

    Coordinates whose predicted variance is numerically zero (constant
    functions) are flagged as degenerate and skipped by the per-coordinate
    KS check; their empirical variance is still compared entrywise.
    """
    fs = list(fs)
    if not fs:
        raise EvaluationError("no functions supplied")
    for i, f in enumerate(fs):
        if not isinstance(f, StatFunction):
            raise EvaluationError(f"fs[{i}] is a {type(f).__name__}, not a StatFunction")
    law = cfg.law
    means = [law.expectation(f) for f in fs]
    predicted = gamma_matrix(fs, law)
    n = cfg.n
    sqrt_n = math.sqrt(n)
    streams = BlockStreams(cfg.seed, (), 0, cfg.reps)

    def kernel(lo: int, hi: int) -> np.ndarray:
        # G_n(f) per row, as gn_eval takes it; the means are finite here,
        # because a non-finite one makes gamma_matrix raise
        xs, ys, _, _, nonfinite = _draw_replicates(cfg, streams[lo:hi])
        failures = [nonfinite]
        g = np.zeros((len(xs), len(fs)))
        for j, (f, mu) in enumerate(zip(fs, means)):
            try:
                vals = np.asarray(f(xs, ys), dtype=float)
                if vals.shape != xs.shape:
                    raise EvaluationError(f"{f.label} returned shape {vals.shape}, "
                                          f"expected {xs.shape}")
            except EmpcalcError as exc:
                # an error for the whole block is charged to its first replicate
                failures.append((np.ones(1, dtype=bool), lambda row, exc=exc: exc))
                break
            failures.append((~np.isfinite(vals).all(axis=1), lambda row, f=f:
                             EvaluationError(f"non-finite evaluation of {f.label}")))
            g[:, j] = (vals.sum(axis=1) - n * mu) / sqrt_n
        _raise_first_failure(lo, failures)
        return g

    g = _map_replicates(kernel, n, cfg.reps, cfg.threads)
    emp_cov = np.atleast_2d(np.cov(g, rowvar=False, ddof=1))
    max_abs_err = float(np.abs(emp_cov - predicted.entries).max())

    degenerate = [j for j in range(len(fs))
                  if predicted.entries[j, j] < DEGENERATE_VARIANCE_FLOOR]
    ks_per_coord: list[Optional[float]] = []
    for j in range(len(fs)):
        if j in degenerate:
            ks_per_coord.append(None)
        else:
            sd = math.sqrt(predicted.entries[j, j])
            ks_per_coord.append(ks_statistic(g[:, j] / sd, standard_normal_cdf))
    live_ks = [k for k in ks_per_coord if k is not None]

    checks = [
        CheckResult("max_cov_abs_error", max_abs_err, cov_atol,
                    max_abs_err <= cov_atol),
        CheckResult("min_eigenvalue", predicted.min_eigenvalue, -1e-10,
                    predicted.min_eigenvalue >= -1e-10),
    ]
    if live_ks:
        worst = max(live_ks)
        checks.append(CheckResult("max_marginal_ks", worst, ks_tol, worst <= ks_tol))

    return Report(
        "lemma1",
        {"law": law.describe(), "n": cfg.n, "reps": cfg.reps,
         "functions": [f.label for f in fs],
         "cov_atol": cov_atol, "ks_tol": ks_tol},
        {"predicted_cov": predicted.entries.tolist(),
         "empirical_cov": emp_cov.tolist(),
         "max_cov_abs_error": max_abs_err,
         "ks_per_coordinate": ks_per_coord,
         "degenerate_coordinates": degenerate},
        checks, cfg.seed)
