"""The functional empirical process and its covariance functional.

For a sample Z_1..Z_n and a function f of one observation, the process is

    G_n(f) = n^{-1/2} * sum_i (f(Z_i) - E f(Z)),

a centered, root-n-scaled empirical average.  Its limiting covariance is

    Gamma(f, g) = E[f g] - E[f] E[g],

and for any finite family f_1..f_k the vector (G_n(f_1), .., G_n(f_k))
converges to a centered k-variate normal with covariance matrix
Gamma(f_i, f_j).  This module evaluates G_n on data and computes Gamma
exactly (polynomial functions under a law with known raw moments), on a
law's Gauss rules, or by Monte Carlo integration, each with an error estimate.

Moment oracles
--------------
:class:`MomentOracle` is the integration interface: ``expectation`` and
``covariance_estimate``.  :class:`PolynomialMomentOracle` implements it
for laws with exact moments E[(X - px)^i (Y - py)^j]: Gamma does not change
when f is shifted, so it writes every polynomial about the law's mean by the
binomial theorem and integrates it with the moments there.  A family with any
other function it integrates on its coarse and fine product Gauss rules, each
a discrete law of nodes and weights built on first use and kept, with the fine
value when the two agree.  :class:`SamplingMoments` averages over one
seed-deterministic batch of a caller's sampler (an empirical Gram matrix, so
PSD).

Integration counts
------------------
Each oracle answers one covariance request, ``_gamma(fs)``: Gamma_F of a
family, as one matrix, with its error estimates and the route that took it
("exact", "quadrature" or "monte_carlo"), with no f_i * f_j built and no
expectation called.  It is C Sigma C^T over a polynomial family's monomials
about the law's mean, Sigma from the central moments (for the correlation's
uv, u^2 and v^2, those bivariate_moments() looked up), the Gram matrix of
centred atom values on a discrete law and on each Gauss rule, and on the
sampling route two passes over each ``_CHUNK`` pairs of the batch, each
evaluating every function: the means, then centred products.  A single
Gamma(f, g) is entry [0, 1] of the Gamma_F of (f, g), and an expansion's
variance is s^T Gamma_F s over its non-zero slopes (0.0 if there is none);
only the sampling route builds the influence.
"""

from __future__ import annotations

import itertools
import math
import operator
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
# pairs of the Monte Carlo batch integrated at once, and of a block a law transforms
_CHUNK = 32_768
# nodes per axis of the coarse and fine Gauss rules (laggauss's weights are NaN
# past 96 on numpy 2.4), and the largest gap between their values, relative to
# max(1, max |value|): smooth functions agree to 4e-13, a jump or kink to 1e-3
QUADRATURE_POINTS = (48, 96)
QUADRATURE_RTOL = 1e-10

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

    ``stderr`` is 0.0 for exact integration, the gap between the coarse and
    fine Gauss rules' values, or a first-order Monte Carlo standard error.
    """

    value: float
    stderr: float
    method: str  # "exact", "quadrature" or "monte_carlo"


class MomentOracle(ABC):
    """Integration interface: :meth:`_gamma`, Gamma_F of a family with its error
    estimates and the route that took it, is the one covariance request."""

    @abstractmethod
    def expectation(self, f: StatFunction) -> float:
        """E f(Z) under this oracle's law."""

    def covariance_estimate(self, f: StatFunction, g: StatFunction) -> CovarianceEstimate:
        """Gamma(f, g) = E[fg] - E[f]E[g]: entry [0, -1] of ``_gamma((f, g))``, or
        of ``_gamma((f,))`` for g = f, with its error estimate and route."""
        value, error, method = self._gamma((f,) if g is f else (f, g))
        return CovarianceEstimate(float(value[0, -1]), float(error[0, -1]), method)

    @abstractmethod
    def _gamma(self, fs) -> tuple[np.ndarray, np.ndarray, str]:
        """Gamma_F = (Gamma(f_i, f_j)), exactly symmetric, its error estimates
        (zeros if exact) and its ``CovarianceEstimate.method``."""

    def _variance_of_sum(self, terms, e: AsymptoticExpansion) -> CovarianceEstimate:
        """s^T Gamma_F s over ``terms``, the (s_j, f_j) of ``e`` with s_j not 0; its
        error estimate is |s|^T E |s| over the entries' error estimates E, 0.0 if exact."""
        s, fs = np.array([t for t, _ in terms]), [f for _, f in terms]
        value, error, method = self._gamma(fs)
        return CovarianceEstimate(float(s @ value @ s), 0.0 if method == "exact"
                                  else float(np.abs(s) @ error @ np.abs(s)), method)


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
    :meth:`mean`; a family with any other function, on the law's coarse and fine
    product Gauss rules (:meth:`_rule`), built on first use and kept.  A subclass
    implements ``_rule`` and ``raw_moment`` or ``moment_about``, each the other's
    default, and overrides :meth:`mean` if it is not (0, 0)."""

    _gauss_rules: Optional[list[MomentOracle]] = None

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

    def _rule(self, m: int) -> MomentOracle:
        """The product Gauss rule of m nodes per axis, an exact oracle over its atoms."""
        raise MomentError(f"{type(self).__name__} has no Gauss rule for a non-polynomial function")

    def _on_gauss_rules(self, integrate: Callable, fs) -> tuple[np.ndarray, np.ndarray]:
        """``integrate(rule)`` on the coarse and fine rules: the fine value, and the
        gap between the two as its error.  A gap above ``QUADRATURE_RTOL`` times
        max(1, max |value|), as of a jump or a kink under a continuous law, raises a
        MomentError naming the first entry, in row order: f, or f*g off the diagonal."""
        if self._gauss_rules is None:
            self._gauss_rules = [self._rule(m) for m in QUADRATURE_POINTS]
        coarse, fine = [np.atleast_2d(integrate(rule)) for rule in self._gauss_rules]
        gap = np.abs(fine - coarse)
        bad = np.argwhere(gap > QUADRATURE_RTOL * max(1.0, float(np.abs(fine).max())))
        if bad.size:
            (i, j), (m, m2) = bad[0], QUADRATURE_POINTS
            raise MomentError(f"{_MOMENT_DIVERGES} ({(fs[i] if i == j else fs[i] * fs[j]).label}: "
                              f"the {m}- and {m2}-point Gauss rules differ by {gap[i, j]:.2g})")
        return fine, gap

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
        law's mean (px, py) if f is polynomial, else on the Gauss rules."""
        if f.poly is None:
            return float(self._on_gauss_rules(lambda rule: rule.expectation(f), (f,))[0][0, 0])
        at = self.mean()
        poly = _poly_about(f.poly, at)
        total = 0.0
        for c, m in zip(poly.values(), self._moments(poly, at)):
            total += c * m
        return total

    def _gamma(self, fs) -> tuple[np.ndarray, np.ndarray, str]:
        """C Sigma C^T, Sigma_ab = M(a + b) - M(a) M(b) over the monomials of ``fs``
        about the law's mean p, one lookup of M = ``moment_about`` at p each; a
        family with a non-polynomial function, on the Gauss rules."""
        if any(f.poly is None for f in fs):
            return (*self._on_gauss_rules(lambda rule: rule._gamma(fs)[0], fs), "quadrature")
        p = self.mean()
        basis, c = _coefficients(fs, p)
        keys: dict = {}  # exponent -> its index in m: the products', then the means'
        at = [keys.setdefault((i + k, j + l), len(keys)) for i, j in basis for k, l in basis]
        mb = [keys.setdefault(a, len(keys)) for a in basis]
        m = self._moments(keys, p)
        sigma = np.array([m[t] - m[a] * m[b] for t, (a, b) in zip(at, itertools.product(mb, mb))])
        value = c @ sigma.reshape(len(basis), len(basis)) @ c.T
        return 0.5 * (value + value.T), np.zeros(value.shape), "exact"  # exactly symmetric


class SamplingMoments(MomentOracle):
    """Monte Carlo moments from one shared, seed-deterministic batch of a
    caller's sampler; a law integrates without one.

    Parameters
    ----------
    sampler : callable
        ``sampler(n, rng)`` returning a :class:`PairedSample`.
    budget : int
        Batch size, at least 2; the standard error of a covariance scales
        like budget^{-1/2}.
    seed : int
        Non-negative root seed of the batch stream.  Equal (seed, budget) pairs
        give identical results: the batch is drawn once (a law's adopts its draw
        buffers), cached, and integrated in chunks of ``_CHUNK`` pairs.

    """

    def __init__(self, sampler: Callable[[int, np.random.Generator], PairedSample],
                 budget: int = DEFAULT_MC_BUDGET, seed: int = 0):
        try:
            self.budget, self.seed = operator.index(budget), operator.index(seed)
        except TypeError:
            raise MomentError(f"sampling budget and seed must be integers, "
                              f"got {budget!r} and {seed!r}") from None
        if self.budget < 2 or self.seed < 0:
            raise MomentError(f"sampling needs budget >= 2, seed >= 0, got {budget}, {seed}")
        self.sampler = sampler
        self._batch: Optional[PairedSample] = None

    def batch(self) -> PairedSample:
        if self._batch is None:
            self._batch = self.sampler(self.budget, derive_rng(self.seed))
        return self._batch

    def _chunks(self):
        """(at, xs, ys) of the batch's pairs at..at + _CHUNK - 1, chunk by chunk."""
        s = self.batch()
        for at in range(0, s.n, _CHUNK):
            yield at, s.xs[at:at + _CHUNK], s.ys[at:at + _CHUNK]

    def _means(self, fs) -> np.ndarray:
        """The mean of each f on the batch, from its chunk sums; a MomentError
        names the first f, in order, with a non-finite value."""
        sums = np.zeros(len(fs))
        for i, f in enumerate(fs):
            for _, x, y in self._chunks():
                vals = np.asarray(f(x, y), dtype=float)
                if not np.isfinite(vals).all():
                    raise MomentError(f"{_MOMENT_DIVERGES} ({f.label}: non-finite draw)")
                sums[i] += vals.sum()
        return sums / self.batch().n

    def expectation(self, f: StatFunction) -> float:
        m = float(self._means((f,))[0])
        if not math.isfinite(m):
            raise MomentError(f"{_MOMENT_DIVERGES} ({f.label})")
        return m

    def _gamma(self, fs) -> tuple[np.ndarray, np.ndarray, str]:
        """Gamma_F and stderrs on the batch in two passes over its chunks: the means,
        then for each pair i <= j the sums of the products w of centred values and of
        squares of w about its chunk mean, merged as Chan, Golub and LeVeque (1983) do."""
        mean, r = self._means(fs), self.batch().n
        i, j = np.triu_indices(len(fs))
        total, m2, s, q = np.zeros((4, i.size))
        for at, x, y in self._chunks():
            c = [np.asarray(f(x, y), dtype=float) - m for f, m in zip(fs, mean)]
            w = np.empty(x.size)
            for p, (a, b) in enumerate(zip(i, j)):
                np.multiply(c[a], c[b], out=w)
                s[p] = w.sum()
                w -= s[p] / w.size
                np.multiply(w, w, out=w)
                q[p] = w.sum()
            d = s / w.size - total / max(at, 1)
            m2 += q + d * d * (at * w.size / (at + w.size))
            total += s
        value, stderr = total / (r - 1), np.sqrt(m2 / (r - 1)) / math.sqrt(r)
        ok = np.isfinite(value) & np.isfinite(stderr)
        if not ok.all():
            p = np.argmin(ok)  # the first pair, in row order, that failed
            raise MomentError(f"{_MOMENT_DIVERGES} ({fs[i[p]].label}, {fs[j[p]].label})")
        out = np.empty((2, len(fs), len(fs)))  # values, stderrs
        out[:, i, j] = out[:, j, i] = value, stderr
        return out[0], out[1], "monte_carlo"

    def _variance_of_sum(self, terms, e: AsymptoticExpansion) -> CovarianceEstimate:
        """Gamma(h, h) of ``e``'s influence on the batch, with the stderr of the sum."""
        return self.covariance_estimate(e.influence, e.influence)


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

    One ``_gamma`` request takes the whole matrix on one route, which
    ``method`` names: exact if the oracle integrates every listed function
    exactly, else the oracle's Gauss rules, or a bare sampling oracle's batch,
    shared by all entries; a mix of exact and integrated entries could fail the
    PSD guarantee.  An error names the first pair (f, g), in row order, whose
    own Gamma_F fails: the one that ``covariance_estimate(f, g)`` integrates.
    """
    fs = list(fs)
    if not fs:
        raise MomentError("gamma_matrix needs at least one function")
    try:
        value, _, method = oracle._gamma(fs)
    except MomentError:
        for f, g in [(f, g) for i, f in enumerate(fs) for g in fs[i:]]:
            try:
                oracle.covariance_estimate(f, g)
            except MomentError as exc:
                raise MomentError(f"gamma failed for pair ({f.label}, {g.label}): {exc}") from exc
        raise
    return CovarianceMatrix(value, tuple(f.label for f in fs), method)


def asymptotic_variance_estimate(e: AsymptoticExpansion, oracle: MomentOracle) -> CovarianceEstimate:
    """Gamma(h, h) for the influence h = sum_j s_j f_j of an expansion, with
    provenance: s^T Gamma_F s from one ``_gamma`` request over the f_j of non-zero
    slope (the sampling oracle asks it of h itself); with no such f_j, an exact
    0.0, and nothing is integrated."""
    terms = [(s, f) for s, f in e.terms if s]
    est = oracle._variance_of_sum(terms, e) if terms else CovarianceEstimate(0.0, 0.0, "exact")
    if est.value < PSD_EIGENVALUE_FLOOR:
        raise MomentError(f"negative asymptotic variance {est.value:g} "
                          f"for {e.label or e.influence.label}")
    return CovarianceEstimate(max(est.value, 0.0), est.stderr, est.method)


def asymptotic_variance(e: AsymptoticExpansion, oracle: MomentOracle) -> float:
    """Limiting variance of sqrt(n) (T_n - value): s^T Gamma_F s = Gamma(h, h)."""
    return asymptotic_variance_estimate(e, oracle).value
