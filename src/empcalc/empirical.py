"""The functional empirical process and its covariance functional.

For a sample Z_1..Z_n and a function f of one observation, the process is

    G_n(f) = n^{-1/2} * sum_i (f(Z_i) - E f(Z)),

a centered, root-n-scaled empirical average.  Its limiting covariance is

    Gamma(f, g) = E[f g] - E[f] E[g],

and for any finite family f_1..f_k the vector (G_n(f_1), .., G_n(f_k))
converges to a centered k-variate normal with covariance matrix
Gamma(f_i, f_j).  This module evaluates G_n on data and computes Gamma
either exactly (polynomial functions under a law with known raw moments)
or by plain Monte Carlo integration with a reported standard error.

Moment oracles
--------------
:class:`MomentOracle` is the integration interface: ``expectation`` and
``covariance_estimate``.  :class:`PolynomialMomentOracle` implements it
for laws that expose exact raw moments E[X^i Y^j].
:class:`SamplingMoments` implements it by averaging over one shared,
seed-deterministic batch of draws, so repeated queries and whole
covariance matrices are mutually consistent (a shared batch makes the
estimated Gamma matrix an empirical Gram matrix, hence PSD).

``MomentOracle._integrator(fs)`` alone chooses the route: the oracle
itself when it integrates every function exactly, else its sampling
fallback for all of them, else one MomentError naming the first function
it cannot integrate.

Integration counts
------------------
Each function is integrated once per covariance matrix, and no f_i * f_j
is built to integrate it.  On the exact route a polynomial oracle
multiplies coefficient dicts, and takes 5 means, not 45 expectations, for
k = 5; a discrete law evaluates each function once on its atoms.  On the
sampling route the matrix is filled row by row: row i centres f_i on the
batch once and evaluates each f_j, j > i, once, k(k+1)/2 evaluations in
all.  Only one row's centred values are held between entries, so the peak
beyond the batch is that row plus one entry's evaluation and product
(three batch-length arrays), whatever k is.  The values, and the pair an
error names, are those of integrating each pair afresh.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EvaluationError, MomentError
from .expansion import AsymptoticExpansion
from .functions import StatFunction, _poly_mul
from .sample import PairedSample
from .streams import derive_rng

DEFAULT_MC_BUDGET = 1_000_000

# matrix acceptance floors used by CovarianceMatrix validation
SYMMETRY_RTOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

_MOMENT_DIVERGES = "moment does not exist under this law at requested precision"


def gn_eval(sample: PairedSample, f: StatFunction, mean_f: float) -> float:
    """Evaluate G_n(f) = n^{-1/2} sum(f(Z_i) - mean_f) on a sample.

    ``mean_f`` is the population mean E f(Z); it is supplied by the caller
    (typically from a moment oracle) rather than estimated from the data.
    Finite values whose sum overflows raise EvaluationError.
    """
    n = int(np.asarray(sample.xs).size)
    if n == 0:
        raise EvaluationError("empty sample")
    if not math.isfinite(float(mean_f)):
        raise EvaluationError(f"non-finite mean for {f.label}")
    vals = np.asarray(f(sample.xs, sample.ys), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"non-finite evaluation of {f.label}")
    g = float((vals.sum() - n * float(mean_f)) / math.sqrt(n))
    if not math.isfinite(g):
        raise EvaluationError(f"G_n({f.label}) is not finite: its sum overflows")
    return g


class CovarianceEstimate(NamedTuple):
    """A covariance value plus how it was obtained.

    ``stderr`` is 0.0 for exact integration and a first-order Monte Carlo
    standard error otherwise.
    """

    value: float
    stderr: float
    method: str  # "exact" or "monte_carlo"


class MomentOracle(ABC):
    """Integration interface: expectations and covariances of functions."""

    @abstractmethod
    def expectation(self, f: StatFunction) -> float:
        """E f(Z) under this oracle's law."""

    def covariance_estimate(self, f: StatFunction, g: StatFunction) -> CovarianceEstimate:
        """Gamma(f, g) = E[fg] - E[f]E[g]: exact when f and g are, else the fallback's.

        ``covariance_estimate(f, f)`` takes E[f] once.
        """
        return next(self._integrator((f, g))._covariance_row(f, (g,), {}))

    def _integrator(self, fs: Sequence[StatFunction]) -> "MomentOracle":
        """The oracle that integrates all of ``fs``: this one when each is
        exact, else the sampling fallback.  The one place the route is chosen."""
        for f in fs:
            if not self.supports_exact(f):
                fallback = self.sampling_oracle()
                if fallback is None:
                    raise MomentError(
                        f"{f.label} is not polynomial and this oracle cannot sample")
                return fallback
        return self

    @abstractmethod
    def _covariance_row(self, f, gs, memo: dict) -> Iterator[CovarianceEstimate]:
        """Yield Gamma(f, g) for each g of ``gs``; ``memo`` lives for one matrix."""

    def covariance(self, f: StatFunction, g: StatFunction) -> float:
        """Gamma(f, g), without its provenance."""
        return self.covariance_estimate(f, g).value

    def supports_exact(self, f: StatFunction) -> bool:
        """Whether ``expectation(f)`` is exact rather than sampled."""
        return False

    def sampling_oracle(self) -> Optional["MomentOracle"]:
        """A Monte Carlo fallback for functions this oracle cannot integrate."""
        return None


class PolynomialMomentOracle(MomentOracle):
    """Exact moments for polynomial functions via raw moments E[X^i Y^j]."""

    @abstractmethod
    def raw_moment(self, i: int, j: int) -> float:
        """E[X^i Y^j]; must be finite for all requested orders."""

    def supports_exact(self, f: StatFunction) -> bool:
        return f.poly is not None

    def poly_expectation(self, poly) -> float:
        total = 0.0
        for (i, j), c in poly.items():
            m = self.raw_moment(i, j)
            if not math.isfinite(m):
                raise MomentError(f"{_MOMENT_DIVERGES}: raw moment ({i},{j})")
            total += c * m
        return total

    def expectation(self, f: StatFunction) -> float:
        # a polynomial is exact here by definition, so only others ask for the route
        if f.poly is None:
            return self._integrator((f,)).expectation(f)
        return self.poly_expectation(f.poly)

    def _covariance_row(self, f: StatFunction, gs: Sequence[StatFunction],
                        memo: dict) -> Iterator[CovarianceEstimate]:
        """E[fg] from the product of the coefficient dicts; ``memo`` holds E[h]."""
        for g in gs:
            value = (self.poly_expectation(_poly_mul(f.poly, g.poly))
                     - self._mean(f, memo) * self._mean(g, memo))
            yield CovarianceEstimate(value, 0.0, "exact")

    def _mean(self, f: StatFunction, memo: dict) -> float:
        if f not in memo:
            memo[f] = self.expectation(f)
        return memo[f]


class SamplingMoments(MomentOracle):
    """Monte Carlo moments from one shared, seed-deterministic batch.

    Parameters
    ----------
    sampler : callable
        ``sampler(n, rng)`` returning a :class:`PairedSample`.
    budget : int
        Batch size; the standard error of a covariance scales like
        budget^{-1/2}.
    seed : int
        Root seed of the batch stream.  Equal (seed, budget) pairs give
        identical results, because the batch is drawn once and cached.

    Once the batch is drawn, ``sampler`` is set to None: a law's bound
    ``sample`` would otherwise tie the law and its cached oracle in a
    reference cycle, keeping the batch alive until the cyclic collector runs.

    ``covariance_estimate(f, g)`` evaluates f and g once each on the batch,
    and ``covariance_estimate(f, f)`` evaluates f once.  Under
    :func:`gamma_matrix` a k-function family costs k(k+1)/2 evaluations,
    with one row's centred values held at a time.
    """

    def __init__(self, sampler: Callable[[int, np.random.Generator], PairedSample],
                 budget: int = DEFAULT_MC_BUDGET, seed: int = 0):
        if budget < 2:
            raise MomentError(f"sampling budget must be >= 2, got {budget}")
        self.sampler = sampler
        self.budget = int(budget)
        self.seed = int(seed)
        self._batch: Optional[PairedSample] = None

    def batch(self) -> PairedSample:
        if self._batch is None:
            self._batch = self.sampler(self.budget, derive_rng(self.seed))
            self.sampler = None
        return self._batch

    def _values(self, f: StatFunction) -> np.ndarray:
        s = self.batch()
        vals = np.asarray(f(s.xs, s.ys), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise MomentError(f"{_MOMENT_DIVERGES} ({f.label}: non-finite draw)")
        return vals

    def _centred(self, f: StatFunction, times: Optional[np.ndarray] = None) -> np.ndarray:
        """f on the batch less its mean, times ``times`` if given, in a new array."""
        vals = self._values(f)
        c = vals - vals.mean()
        if times is not None:
            c *= times
        return c

    def expectation(self, f: StatFunction) -> float:
        m = float(self._values(f).mean())
        if not math.isfinite(m):
            raise MomentError(f"{_MOMENT_DIVERGES} ({f.label})")
        return m

    def _covariance_row(self, f: StatFunction, gs: Sequence[StatFunction],
                        memo: dict) -> Iterator[CovarianceEstimate]:
        """Yield Gamma(f, g) for each g of ``gs``, holding f's centred values.

        f is evaluated once and each g once (g = f reuses f's values).  Each
        g's centred values take the product in their own buffer, so one
        batch-length array stays held between entries.
        """
        cf = self._centred(f)
        for g in gs:
            yield self._estimate(cf * cf if g is f else self._centred(g, cf), f, g)

    @staticmethod
    def _estimate(w: np.ndarray, f: StatFunction, g: StatFunction) -> CovarianceEstimate:
        """Gamma(f, g) from the products w of centred values; w is overwritten."""
        r = w.size
        s = w.sum()
        value = float(s / (r - 1))
        # w.std(ddof=1), in place on w: the same operations in numpy's order
        w -= s / r
        np.multiply(w, w, out=w)
        stderr = math.sqrt(w.sum() / (r - 1)) / math.sqrt(r)
        if not (math.isfinite(value) and math.isfinite(stderr)):
            raise MomentError(f"{_MOMENT_DIVERGES} ({f.label}, {g.label})")
        return CovarianceEstimate(value, stderr, "monte_carlo")

    def sampling_oracle(self) -> "SamplingMoments":
        return self


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A validated k-by-k covariance matrix of G_n coordinates.

    Construction enforces the two structural facts the limit theorem
    guarantees: symmetry (entries are computed once per unordered pair)
    and positive semidefiniteness up to an eigenvalue floor of -1e-10.
    """

    entries: np.ndarray
    labels: tuple[str, ...]
    method: str = "exact"

    def __post_init__(self):
        m = np.array(self.entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MomentError(f"covariance matrix must be square, got shape {m.shape}")
        if len(self.labels) != m.shape[0]:
            raise MomentError("label count does not match matrix size")
        largest = float(np.abs(m).max())  # nan or inf if any entry is
        if not math.isfinite(largest):
            raise MomentError("non-finite covariance matrix entry")
        scale = max(1.0, largest)
        asym = float(np.abs(m - m.T).max())
        if asym > SYMMETRY_RTOL * scale:
            raise MomentError(f"covariance matrix asymmetric: max |M - M^T| = {asym:g}")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < PSD_EIGENVALUE_FLOOR:
            raise MomentError(
                f"covariance matrix not PSD: min eigenvalue {min_eig:g}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "_min_eig", min_eig)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return self._min_eig


def gamma_matrix(fs: Sequence[StatFunction], oracle: MomentOracle) -> CovarianceMatrix:
    """Gamma(f_i, f_j) for a family of functions, as a CovarianceMatrix.

    If the oracle integrates every listed function exactly, entries are
    exact.  Otherwise the whole matrix is computed through the oracle's
    sampling fallback so that all entries share one batch of draws; a mix
    of exact and sampled entries could fail the PSD guarantee.  The route
    is chosen before any pair, and ``method`` is that of the entries.

    Each function is integrated once: k means and k(k+1)/2 products, with no
    f_i * f_j built, on the exact route; k(k+1)/2 evaluations on the batch,
    holding one row's centred values, on the sampling route.  The first pair
    that fails is named in the error, as if each pair were integrated afresh.
    """
    fs = list(fs)
    if not fs:
        raise MomentError("gamma_matrix needs at least one function")
    working = oracle._integrator(fs)
    k = len(fs)
    m = np.zeros((k, k))
    memo: dict = {}
    for i in range(k):
        j = i  # the entry the row is computing
        try:
            for est in working._covariance_row(fs[i], fs[i:], memo):
                m[i, j] = m[j, i] = est.value
                j += 1
        except MomentError as exc:
            raise MomentError(
                f"gamma failed for pair ({fs[i].label}, {fs[j].label}): {exc}") from exc
    return CovarianceMatrix(m, tuple(f.label for f in fs), est.method)


def asymptotic_variance_estimate(e: AsymptoticExpansion, oracle: MomentOracle) -> CovarianceEstimate:
    """Gamma(h, h) for the influence h of an expansion, with provenance."""
    est = oracle.covariance_estimate(e.influence, e.influence)
    if est.value < PSD_EIGENVALUE_FLOOR:
        raise MomentError(
            f"negative asymptotic variance {est.value:g} for {e.influence.label}")
    return CovarianceEstimate(max(est.value, 0.0), est.stderr, est.method)


def asymptotic_variance(e: AsymptoticExpansion, oracle: MomentOracle) -> float:
    """Limiting variance of sqrt(n) (T_n - value): Gamma(influence, influence)."""
    return asymptotic_variance_estimate(e, oracle).value
