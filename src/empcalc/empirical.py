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
for laws with exact moments E[(X - px)^i (Y - py)^j]: Gamma does not change
when f is shifted, so it writes every polynomial about the law's mean by the
binomial theorem and integrates it with the moments there, and
:class:`SamplingMoments` by averaging over one shared, seed-deterministic
batch of draws (so a sampled Gamma matrix is an empirical Gram matrix,
hence PSD).  ``_integrator(fs)`` alone chooses the route: the oracle
itself, but for a polynomial oracle given a non-polynomial function its
``sampling_oracle()``, which every polynomial oracle has, for all of ``fs``.

Integration counts
------------------
Each oracle answers one covariance request, ``_gamma(fs)``: Gamma_F of a
family, as one matrix, with no f_i * f_j built and no expectation called.
It is C Sigma C^T over a polynomial family's monomials about the law's mean,
Sigma from the central moments (for the correlation's uv, u^2 and v^2, those
bivariate_moments() looked up), the Gram matrix of centred atom values on a
discrete law, and row by row on the sampling route, holding one row's
centred values plus one entry's evaluation and product beyond the batch.
A single Gamma(f, g) is entry [0, 1] of the Gamma_F of (f, g), and an
expansion's variance is s^T Gamma_F s over its non-zero slopes (0.0 if
there is none); only the sampling route builds the influence.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EvaluationError, MomentError
from .expansion import AsymptoticExpansion
from .functions import StatFunction
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
    """Integration interface; :meth:`_integrator` alone picks who integrates, and
    :meth:`_gamma`, the matrix Gamma_F of a family, is the one covariance request."""

    @abstractmethod
    def expectation(self, f: StatFunction) -> float:
        """E f(Z) under this oracle's law."""

    def covariance_estimate(self, f: StatFunction, g: StatFunction) -> CovarianceEstimate:
        """Gamma(f, g) = E[fg] - E[f]E[g]: exact when f and g are, else the fallback's;
        entry [0, -1] of ``_gamma((f, g))``, or of ``_gamma((f,))`` for g = f."""
        value, stderr = self._integrator((f, g))._gamma((f,) if g is f else (f, g))
        if stderr is None:
            return CovarianceEstimate(float(value[0, -1]), 0.0, "exact")
        return CovarianceEstimate(float(value[0, -1]), float(stderr[0, -1]), "monte_carlo")

    def _integrator(self, fs: Sequence[StatFunction]) -> "MomentOracle":
        """The oracle that integrates every function of ``fs``: this one."""
        return self

    @abstractmethod
    def _gamma(self, fs) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Gamma_F = (Gamma(f_i, f_j)), exactly symmetric, and its stderrs, None if exact."""

    def _variance_of_sum(self, terms, e: AsymptoticExpansion) -> CovarianceEstimate:
        """s^T Gamma_F s over ``terms``, the (s_j, f_j) of ``e`` with s_j not 0."""
        s, fs = np.array([t for t, _ in terms]), [f for _, f in terms]
        return CovarianceEstimate(float(s @ self._gamma(fs)[0] @ s), 0.0, "exact")


def _poly_about(poly, to: tuple[float, float], at: tuple[float, float] = (0.0, 0.0)) -> dict:
    """``poly``, sum c_ij (x - ax)^i (y - ay)^j about ``at``, written about ``to``:
    each power of x - ax = (x - tx) + (tx - ax) expanded by the binomial theorem.
    A coefficient float64 cannot hold raises a MomentError naming its (i, j)."""
    dx, dy = to[0] - at[0], to[1] - at[1]
    if not (dx or dy):
        return poly
    out: dict = {}
    for (i, j), c in poly.items():
        try:  # the terms (a, C(k, a) d^(k - a)) of (t + d)^k; only a = k if d is 0
            xs, ys = ([(a, math.comb(k, a) * d ** (k - a)) for a in range(k + 1) if d or a == k]
                      for k, d in ((i, dx), (j, dy)))
        except OverflowError:
            raise MomentError(f"{_MOMENT_DIVERGES}: the shift of ({i},{j}) about {at} "
                              f"to {to} overflows float64") from None
        for a, sx in xs:
            for b, sy in ys:
                out[a, b] = out.get((a, b), 0.0) + c * sx * sy
    return {k: v for k, v in out.items() if v != 0.0}


def _coefficients(fs: Sequence[StatFunction], at: tuple[float, float]) -> tuple[list, np.ndarray]:
    """The non-constant monomials of ``fs`` about ``at`` in order of first
    appearance, and C, their coefficients, a row per function."""
    polys = [_poly_about(f.poly, at) for f in fs]
    basis: dict = {}
    for poly in polys:
        for k in poly:
            if k != (0, 0):
                basis.setdefault(k, len(basis))
    c = np.zeros((len(fs), len(basis)))
    for r, poly in enumerate(polys):
        for k, v in poly.items():
            if k != (0, 0):
                c[r, basis[k]] = v
    return list(basis), c


class PolynomialMomentOracle(MomentOracle):
    """Exact moments for polynomial functions, each integrated about the law's
    :meth:`mean`; any other function goes to :meth:`sampling_oracle`.  A subclass
    implements :meth:`sampling_oracle` and ``raw_moment`` or ``moment_about``,
    each the other's default, and overrides :meth:`mean` if it is not (0, 0)."""

    def mean(self) -> tuple[float, float]:
        """(E X, E Y), the point every polynomial is integrated about."""
        return 0.0, 0.0

    def raw_moment(self, i: int, j: int) -> float:
        """E[X^i Y^j], ``moment_about`` at the origin."""
        if type(self).moment_about is PolynomialMomentOracle.moment_about:
            raise MomentError(
                f"{type(self).__name__} implements neither raw_moment nor moment_about")
        return self.moment_about(i, j, 0.0, 0.0)

    def moment_about(self, i: int, j: int, px: float, py: float) -> float:
        """E[(X - px)^i (Y - py)^j]: ``raw_moment`` over the terms of the binomial shift."""
        if not (px or py):
            return self.raw_moment(i, j)
        terms = _poly_about({(i, j): 1.0}, (0.0, 0.0), (px, py))
        return sum(c * self.raw_moment(a, b) for (a, b), c in terms.items())

    @abstractmethod
    def sampling_oracle(self) -> MomentOracle:
        """The Monte Carlo fallback for functions without a polynomial form."""

    def _integrator(self, fs: Sequence[StatFunction]) -> MomentOracle:
        """This oracle when every function of ``fs`` is polynomial, else the
        sampling fallback for all of them."""
        return self if all(f.poly is not None for f in fs) else self.sampling_oracle()

    def _moments(self, keys, at: tuple[float, float]) -> list[float]:
        """``moment_about(i, j, *at)`` for each (i, j) of ``keys``; a MomentError
        names the first that is not finite."""
        m = [self.moment_about(i, j, *at) for i, j in keys]
        if not all(map(math.isfinite, m)):
            i, j = next(k for k, v in zip(keys, m) if not math.isfinite(v))
            name = f"moment ({i},{j}) about {at}" if at[0] or at[1] else f"raw moment ({i},{j})"
            raise MomentError(f"{_MOMENT_DIVERGES}: {name}")
        return m

    def expectation(self, f: StatFunction) -> float:
        """E f(Z): sum c_ij E[(X - px)^i (Y - py)^j] over f's coefficients about the
        law's mean (px, py) if f is polynomial, else the fallback's."""
        if f.poly is None:
            return self._integrator((f,)).expectation(f)
        at = self.mean()
        poly = _poly_about(f.poly, at)
        total = 0.0
        for c, m in zip(poly.values(), self._moments(poly, at)):
            total += c * m
        return total

    def _gamma(self, fs) -> tuple[np.ndarray, None]:
        """C Sigma C^T, Sigma_ab = M(a + b) - M(a) M(b) over the monomials of ``fs``
        about the law's mean p, one lookup of M = ``moment_about`` at p each."""
        p = self.mean()
        basis, c = _coefficients(fs, p)
        keys: dict = {}  # exponent -> its index in m: the products', then the means'
        at = [keys.setdefault((i + k, j + l), len(keys)) for i, j in basis for k, l in basis]
        mb = [keys.setdefault(a, len(keys)) for a in basis]
        m = self._moments(keys, p)
        sigma = np.array([m[t] - m[a] * m[b] for t, (a, b) in zip(at, itertools.product(mb, mb))])
        value = c @ sigma.reshape(len(basis), len(basis)) @ c.T
        return 0.5 * (value + value.T), None  # exactly symmetric


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

    def _gamma(self, fs) -> tuple[np.ndarray, np.ndarray]:
        """Gamma_F and stderrs on the batch, row by row: f_i is centred once and
        each f_j, j > i, evaluated once into its own buffer for the product
        (f_i itself reuses its values); only j >= i, mirrored."""
        out = np.empty((2, len(fs), len(fs)))  # values, stderrs
        for i, f in enumerate(fs):
            cf = self._centred(f)
            for j, g in enumerate(fs[i:], i):
                out[:, i, j] = out[:, j, i] = self._estimate(
                    cf * cf if g is f else self._centred(g, cf), f, g)
        return out[0], out[1]

    def _variance_of_sum(self, terms, e: AsymptoticExpansion) -> CovarianceEstimate:
        """Gamma(h, h) of ``e``'s influence on the batch, with the stderr of the sum."""
        return self.covariance_estimate(e.influence, e.influence)

    @staticmethod
    def _estimate(w: np.ndarray, f: StatFunction, g: StatFunction) -> tuple[float, float]:
        """Gamma(f, g) and its stderr from the products w of centred values; w is overwritten."""
        r = w.size
        s = w.sum()
        value = float(s / (r - 1))
        # w.std(ddof=1), in place on w: the same operations in numpy's order
        w -= s / r
        np.multiply(w, w, out=w)
        stderr = math.sqrt(w.sum() / (r - 1)) / math.sqrt(r)
        if not (math.isfinite(value) and math.isfinite(stderr)):
            raise MomentError(f"{_MOMENT_DIVERGES} ({f.label}, {g.label})")
        return value, stderr


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A validated k-by-k covariance matrix of G_n coordinates.

    Construction enforces the two structural facts the limit theorem
    guarantees: symmetry (every route's Gamma_F is exactly symmetric)
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
    def min_eigenvalue(self) -> float:
        return self._min_eig


def gamma_matrix(fs: Sequence[StatFunction], oracle: MomentOracle) -> CovarianceMatrix:
    """Gamma(f_i, f_j) for a family of functions, as a CovarianceMatrix.

    If the oracle integrates every listed function exactly, entries are
    exact.  Otherwise the whole matrix is computed through the oracle's
    sampling fallback so that all entries share one batch of draws; a mix
    of exact and sampled entries could fail the PSD guarantee.  The route
    is chosen before any pair, and ``method`` is that of the entries.  An
    error names the first pair (f, g), in row order, whose own Gamma_F fails:
    the one that ``covariance_estimate(f, g)`` integrates.
    """
    fs = list(fs)
    if not fs:
        raise MomentError("gamma_matrix needs at least one function")
    working = oracle._integrator(fs)
    try:
        value, stderr = working._gamma(fs)
    except MomentError:
        for f, g in [(f, g) for i, f in enumerate(fs) for g in fs[i:]]:
            try:
                working.covariance_estimate(f, g)
            except MomentError as exc:
                raise MomentError(f"gamma failed for pair ({f.label}, {g.label}): {exc}") from exc
        raise
    return CovarianceMatrix(value, tuple(f.label for f in fs),
                            "exact" if stderr is None else "monte_carlo")


def asymptotic_variance_estimate(e: AsymptoticExpansion, oracle: MomentOracle) -> CovarianceEstimate:
    """Gamma(h, h) for the influence h = sum_j s_j f_j of an expansion, with
    provenance: s^T Gamma_F s over the f_j of non-zero slope, integrated by the
    oracle's ``_integrator`` for them (the sampling one integrates h itself);
    with no such f_j, an exact 0.0, and nothing is integrated."""
    terms = [(s, f) for s, f in e.terms if s]
    est = (oracle._integrator([f for _, f in terms])._variance_of_sum(terms, e) if terms
           else CovarianceEstimate(0.0, 0.0, "exact"))
    if est.value < PSD_EIGENVALUE_FLOOR:
        raise MomentError(f"negative asymptotic variance {est.value:g} "
                          f"for {e.label or e.influence.label}")
    return CovarianceEstimate(max(est.value, 0.0), est.stderr, est.method)


def asymptotic_variance(e: AsymptoticExpansion, oracle: MomentOracle) -> float:
    """Limiting variance of sqrt(n) (T_n - value): s^T Gamma_F s = Gamma(h, h)."""
    return asymptotic_variance_estimate(e, oracle).value
