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

Both run one serial loop over blocks of replicates, :func:`_replicates`,
and differ only in the row reduction they pass it and the per-sample
routine that explains a failed row.  A block holds about 32k draws per
coordinate (rows = 32768 // n replicates, at least one).
Replicate i draws its values from the generator stream derived from
(seed, i), in the order a single ``law.sample`` call takes them, into row
i of its block; a run hashes all its streams once (:class:`BlockStreams`)
and each block draws from its slice.  So how replicates are grouped into
blocks never changes a value.  The law transforms the whole block at once
and rho_n or G_n(f) is reduced across the block; that row reduction is
the one correlation not taken by ``rho_from_moments`` of a moment set,
as rho_true and :func:`compute_rho_n` are.  The block kernels only mask
their degenerate or non-finite rows.  Those and the rows whose sums are
not finite, as a non-finite draw makes them, are drawn again, one sample
each: the first that ``PairedSample``, ``compute_rho_n`` or ``gn_eval``
rejects names the run's failure.  Only a failed row pays a second draw.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .correlation import (DEGENERATE_VARIANCE_FLOOR, compute_rho_n, rho_from_moments,
                          sigma_squared)
from .empirical import PSD_EIGENVALUE_FLOOR, gamma_matrix, gn_eval
from .errors import (DegenerateSampleError, EmpcalcError, EvaluationError,
                     InputFormatError, SimulationError)
from .functions import StatFunction
from .io import CheckResult, Report
from .laws import BivariateLaw
from .streams import MAX_STREAMS, BlockStreams

DEFAULT_VARIANCE_RTOL = 0.10
DEFAULT_KS_TOL = 0.03
DEFAULT_COV_ATOL = 0.05

# draws per coordinate in one block of replicates; rows = this // n
_BLOCK_ELEMENTS = 32_768


@dataclass(frozen=True)
class ExperimentConfig:
    """What to simulate: law, sample size, replicate count, seed."""

    law: BivariateLaw
    n: int
    reps: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.law, BivariateLaw):
            raise InputFormatError("law must be a BivariateLaw")
        for name in ("n", "reps", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InputFormatError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 2:
            raise InputFormatError(f"n ≥ 2 required, got {self.n}")
        if self.reps < 100:
            raise InputFormatError(f"reps ≥ 100 required, got {self.reps}")
        if self.reps > MAX_STREAMS:
            raise InputFormatError(f"reps ≤ 2**32 required, got {self.reps}")
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
        raise EvaluationError("the reference CDF is not finite on the sample")
    i = np.arange(1, m + 1, dtype=float)
    return float(np.maximum(np.abs(i / m - f_vals),
                            np.abs(f_vals - (i - 1) / m)).max())


def _replicates(cfg: ExperimentConfig, reduce: Callable, explain: Callable) -> np.ndarray:
    """The replicates of a run, block by block in replicate order.

    ``reduce(xs, ys, sx, sy)`` takes a block's draws and row sums and returns
    its values and a mask of its failed rows.  Those and the rows whose sums
    are not finite are drawn again, one sample each, for ``explain``: the
    first it rejects, or a failed row it accepts, fails the run.  An
    EmpcalcError from ``reduce`` is charged to the block's first replicate.
    """
    streams = BlockStreams(cfg.seed, cfg.reps)
    rows = max(1, _BLOCK_ELEMENTS // cfg.n)
    out = []
    for lo in range(0, cfg.reps, rows):
        xs, ys = cfg.law.draw_block(streams[lo:lo + rows], cfg.n)
        # silent: a row holding +inf and -inf sums to nan, finite draws may
        # overflow, and a failed row is named by its typed error alone
        with np.errstate(over="ignore", invalid="ignore"):
            sx, sy = xs.sum(axis=1), ys.sum(axis=1)
            try:
                values, failed = reduce(xs, ys, sx, sy)
            except EmpcalcError as exc:
                raise SimulationError(f"replicate {lo} failed: {exc}") from exc
        for i in lo + np.flatnonzero(failed | ~(np.isfinite(sx) & np.isfinite(sy))):
            try:  # replicate i alone, drawn from its one-row block of streams
                explain(cfg.law.sample(cfg.n, *streams[i:i + 1]))
            except EmpcalcError as exc:
                raise SimulationError(f"replicate {i} failed: {exc}") from exc
            if failed[i - lo]:  # a row visited for its sums alone goes on
                raise SimulationError(f"replicate {i} failed in its block only")
        out.append(values)
    return np.concatenate(out)


def _check_tolerances(**tolerances) -> list[float]:
    """The tolerances as floats, in order, each checked to be real, finite and >= 0."""
    for name, tol in tolerances.items():
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise InputFormatError(f"{name} must be a real number, got {tol!r}")
        if not 0.0 <= tol <= np.finfo(float).max:
            raise InputFormatError(f"{name} must be finite and >= 0, got {tol!r}")
    return [float(tol) for tol in tolerances.values()]


def run_clt_experiment(cfg: ExperimentConfig,
                       variance_rtol: float = DEFAULT_VARIANCE_RTOL,
                       ks_tol: float = DEFAULT_KS_TOL) -> Report:
    """Check sqrt(n)(rho_n - rho) against its predicted normal limit.

    The prediction (rho_true and sigma^2) comes from the law's exact
    moment oracle, never from the simulated data.
    """
    variance_rtol, ks_tol = _check_tolerances(variance_rtol=variance_rtol, ks_tol=ks_tol)
    law = cfg.law
    moments = law.bivariate_moments()
    predicted = sigma_squared(moments)  # raises when the law is affine
    rho_true = rho_from_moments(moments)
    if predicted < DEGENERATE_VARIANCE_FLOOR:
        raise DegenerateSampleError(
            f"predicted asymptotic variance {predicted:g} is numerically zero; "
            "replicates cannot be standardized")
    n = cfg.n
    sqrt_n = math.sqrt(n)
    # a constant column's centred sum of squares is at most n (n eps |mean|)^2,
    # the rounding of its row mean: below 4 n eps^2 sum^2, a row is a candidate
    rounding = 4.0 * n * np.finfo(float).eps ** 2

    def rho_rows(dx, dy, sx, sy):
        # rho_n per row, vectorised: centre on the means, sum / n as numpy's
        # mean divides (in place, the block is the loop's own), then sums of
        # products; compute_rho_n, which explains a failed row, takes moments.
        dx -= (sx / n)[:, np.newaxis]
        dy -= (sy / n)[:, np.newaxis]
        sxx = (dx * dx).sum(axis=1)
        syy = (dy * dy).sum(axis=1)
        den = np.sqrt(sxx * syy)
        big = ~np.isfinite(den)  # sxx * syy overflows, as the moments' product need not
        den[big] = np.sqrt(sxx[big]) * np.sqrt(syy[big])
        degenerate = (sxx <= 0.0) | (syy <= 0.0)
        for d, ss, s in ((dx, sxx, sx), (dy, syy, sy)):
            rows = np.flatnonzero(ss <= rounding * s * s)
            if rows.size:  # rare: compare each candidate row's values exactly
                degenerate[rows] |= (d[rows] == d[rows, :1]).all(axis=1)
        rho_n = np.divide((dx * dy).sum(axis=1), den, out=np.zeros(len(dx)), where=~degenerate)
        return sqrt_n * (rho_n - rho_true), degenerate | ~np.isfinite(den) | ~np.isfinite(rho_n)

    t = _replicates(cfg, rho_rows, compute_rho_n)
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
         "empirical_mean": float(t.mean()),
         "empirical_variance": emp_var,
         "ks_distance": ks},
        checks, cfg.seed)


def run_lemma1_experiment(fs: Sequence[StatFunction], cfg: ExperimentConfig,
                          cov_atol: float = DEFAULT_COV_ATOL,
                          ks_tol: float = DEFAULT_KS_TOL) -> Report:
    """Check joint normality of (G_n(f_1), .., G_n(f_k)) against Gamma.

    Coordinates whose predicted variance is numerically zero (constant
    functions) are flagged as degenerate and skipped by the per-coordinate
    KS check; their empirical variance is still compared entrywise.
    """
    cov_atol, ks_tol = _check_tolerances(cov_atol=cov_atol, ks_tol=ks_tol)
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

    def gn_rows(xs, ys, sx, sy):
        # G_n(f) per row, as gn_eval takes it; the means are finite here,
        # because a non-finite one makes gamma_matrix raise
        g = np.empty((len(xs), len(fs)))
        for j, (f, mu) in enumerate(zip(fs, means)):
            vals = np.asarray(f(xs, ys), dtype=float)
            g[:, j] = (vals.sum(axis=1) - n * mu) / sqrt_n
        return g, ~np.isfinite(g).all(axis=1)

    g = _replicates(cfg, gn_rows, lambda s: [gn_eval(s, f, mu) for f, mu in zip(fs, means)])
    emp_cov = np.atleast_2d(np.cov(g, rowvar=False, ddof=1))
    max_abs_err = float(np.abs(emp_cov - predicted.entries).max())

    degenerate = [j for j in range(len(fs))
                  if predicted.entries[j, j] < DEGENERATE_VARIANCE_FLOOR]
    ks_per_coord: list[Optional[float]] = [
        None if j in degenerate
        else ks_statistic(g[:, j] / math.sqrt(predicted.entries[j, j]), standard_normal_cdf)
        for j in range(len(fs))]
    live_ks = [k for k in ks_per_coord if k is not None]

    checks = [
        CheckResult("max_cov_abs_error", max_abs_err, cov_atol,
                    max_abs_err <= cov_atol),
        CheckResult("min_eigenvalue", predicted.min_eigenvalue, PSD_EIGENVALUE_FLOOR,
                    predicted.min_eigenvalue >= PSD_EIGENVALUE_FLOOR),
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
