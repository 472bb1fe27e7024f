"""Synthetic bivariate laws: samplers plus exact moment oracles.

Every law doubles as a :class:`~empcalc.empirical.MomentOracle` with one
moment primitive, ``moment_about(i, j, px, py)`` = E[(X - px)^i (Y - py)^j]:
raw moments are it at the origin, central moments at the law's mean.  The
Gaussian (Isserlis recursion) and independent laws shift their closed-form
raw moments by the binomial theorem, a mixture averages its components'
moments about the same point, and a discrete law centres its atoms there.
Functions without a polynomial form are integrated on the law's product
Gauss rules (Golub and Welsch, 1969), each a discrete law of its nodes and
weights.  ``bivariate_moments()`` looks up ten central
moments; a discrete law takes :func:`~empcalc.correlation.central_moments`
of its atom arrays under the weighted mean.

Sampling is pinned down to the stream level: normals are numpy's
ziggurat ``Generator.standard_normal`` (Marsaglia and Tsang, 2000), every
other marginal is a transform of ``Generator.random`` uniforms (uniform
and exponential marginals standardized analytically), and composite laws
consume their parts in declaration order, so equal seeds consume
identical stream words everywhere.  Values are bit-identical for one
numpy build on one CPU.  Another machine can differ in the last bits:
the ziggurat calls the C library's ``exp`` and logarithm only on its rare
rejection path, and numpy may send the exponential marginal's ``log1p``
to CPU-specific SIMD code.

Every law draws in two parts, one for the stream and one for the
arithmetic.  The raw fill takes row r's values from generator r, in the
order a single sample takes them, into the law's raw buffers.  A leaf
law of two or more methods, all one, fills a row-major block: row r
holds n values of each of its ``methods`` in turn, drawn by one
Generator call on the row's contiguous sub-block, whose 2n values are
the bits of two calls of n.  One copy of the block's transpose gives the
transform one buffer per method.  Every other fill is one ``_fill`` per
row: a leaf law's n values of each method in turn, or a
mixture's n pick-uniforms, then each picked component's share in
declaration order.  The transform then maps the whole block to (xs, ys)
at once: :meth:`BivariateLaw.draw_block`, of which
:meth:`BivariateLaw.sample` is the one-row case.

The four named marginals are pre-standardized to mean 0, variance 1:

==================  =============================================
standard_normal     N(0, 1)
uniform_std         uniform on [-sqrt(3), sqrt(3)]
exponential_std     unit-rate exponential shifted by -1
rademacher          +-1 with probability 1/2 each
==================  =============================================
"""

from __future__ import annotations

import math
import operator
from abc import abstractmethod
from dataclasses import dataclass
from typing import Callable, Collection, Optional, Sequence

import numpy as np

from .correlation import AFFINE_RHO_TOL, BivariateMoments, central_moments, corrected_mean
from .empirical import _CHUNK, _MOMENT_DIVERGES, PolynomialMomentOracle, _check_exponents
from .errors import AffineDependenceError, EmpcalcError, InputFormatError, MomentError
from .functions import StatFunction
from .sample import PairedSample

WEIGHT_SUM_TOL = 1e-12
_MAX_MIXTURE_DEPTH = 32  # mixtures a law nests: each takes a few stack frames


def _normal_double_factorial(k: int) -> float:
    # E[Z^k] for Z ~ N(0,1): (k-1)!! for even k, 0 for odd k
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


def _uniform_std_moment(k: int) -> float:
    # X ~ U[-a, a] with a = sqrt(3): E[X^k] = a^k / (k+1) for even k
    if k % 2 == 1:
        return 0.0
    return 3.0 ** (k // 2) / (k + 1)


def _subfactorial(k: int) -> float:
    # E[(E-1)^k] for unit-rate exponential E equals the k-th derangement count
    d = 1.0
    for j in range(1, k + 1):
        d = j * d + (-1) ** j
    return d


def _uniform_std(u: np.ndarray) -> np.ndarray:
    u -= 0.5
    u *= math.sqrt(12.0)
    return u


def _exponential_std(u: np.ndarray) -> np.ndarray:
    # -log1p(-u) - 1, the formula's operations in its order, in place
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    u -= 1.0
    return u


def _rademacher(u: np.ndarray) -> np.ndarray:
    # u - 0.5 is exact and negative just when u < 0.5, so its sign is the draw
    u -= 0.5
    return np.copysign(1.0, u, out=u)


def _gauss_rule(path: str, scale: float = 1.0, shift: float = 0.0):
    """rule(m): numpy.polynomial's m-point Gauss rule at ``path``, looked up on
    first use, with its nodes scaled and shifted and its weights summing to 1."""
    def rule(m: int):
        x, w = operator.attrgetter(path)(np.polynomial)(m)
        return scale * x + shift, w / w.sum()
    return rule


def _product_rule(rule_x, rule_y, transform=lambda raw, size: raw) -> "DiscreteLaw":
    """The tensor product of two one-dimensional rules, its grid mapped by ``transform``."""
    (x, wx), (y, wy) = rule_x, rule_y
    return _rule_law(*transform(np.array([x.repeat(y.size), np.tile(y, x.size)]), x.size * y.size),
                     np.outer(wx, wy).ravel())


def _rule_law(xs: np.ndarray, ys: np.ndarray, w: np.ndarray) -> "DiscreteLaw":
    """A rule's atoms of positive weight: products of weights near 1e-155 underflow to 0."""
    return DiscreteLaw(xs[w > 0.0], ys[w > 0.0], w[w > 0.0])


@dataclass(frozen=True)
class Marginal:
    """A named standardized univariate law: sampler plus raw moments.

    ``method`` names the Generator method (``random`` or
    ``standard_normal``) whose n values make n draws: the raw fill.
    ``transform`` works elementwise on an array of them, of any shape,
    overwrites it with the draws and returns it.  ``rule(m)`` is its m-point
    Gauss rule, nodes and weights; without one, only polynomials integrate.
    """

    name: str
    method: str
    transform: Callable[[np.ndarray], np.ndarray]
    raw_moment: Callable[[int], float]
    rule: Optional[Callable[[int], tuple[np.ndarray, np.ndarray]]] = None


MARGINALS: dict[str, Marginal] = {
    "standard_normal": Marginal("standard_normal", "standard_normal", lambda z: z,
                                _normal_double_factorial, _gauss_rule("hermite_e.hermegauss")),
    "uniform_std": Marginal("uniform_std", "random", _uniform_std, _uniform_std_moment,
                            _gauss_rule("legendre.leggauss", math.sqrt(3.0))),
    "exponential_std": Marginal("exponential_std", "random", _exponential_std, _subfactorial,
                                _gauss_rule("laguerre.laggauss", shift=-1.0)),
    "rademacher": Marginal("rademacher", "random", _rademacher, lambda k: 0.0 if k % 2 else 1.0,
                           lambda m: (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))),
}


def get_marginal(name) -> Marginal:
    if isinstance(name, Marginal):
        return name
    try:
        return MARGINALS[name]
    except KeyError:
        raise InputFormatError(
            f"unknown marginal {name!r}; available: {', '.join(sorted(MARGINALS))}") from None


class BivariateLaw(PolynomialMomentOracle):
    """A bivariate law: i.i.d. block sampler plus exact raw moments.

    Sampling is split into a raw fill and a transform.  A leaf law names
    in ``methods`` the Generator methods one pair consumes, in stream
    order, and implements ``transform``; the default raw buffers, one row
    per method, and ``_fill`` serve it.  A composite law overrides both
    ``_raw_buffers`` and ``_fill``.  Subclasses implement
    ``raw_moment`` or ``moment_about``, and ``_rule``; one whose mean is not
    0 overrides :meth:`mean`.
    """

    kind: str = ""
    methods: tuple[str, ...] = ()

    def draw_block(self, rngs: Collection[np.random.Generator],
                   n: int) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys), each of shape (len(rngs), n): row r holds n i.i.d.
        pairs drawn from rngs[r] alone, in the order a single sample takes.
        Both arrays are the caller's own, to overwrite if it likes.

        The raw fill, :meth:`_fill_rows`, iterates the sized ``rngs`` once,
        in row order: the Monte Carlo experiments pass a slice of the
        :class:`~empcalc.streams.BlockStreams` hashed once for the whole
        run, which builds each row's generator only when its row is
        reached.  One transform follows.  The experiments check the
        returned rows for non-finite draws through the row sums.
        """
        rows = len(rngs)
        xs, ys = self.transform(self._fill_rows(rngs, n), rows * n)
        return xs.reshape(rows, n), ys.reshape(rows, n)

    def _fill_rows(self, rngs: Collection[np.random.Generator], n: int):
        """The raw buffers of len(rngs) rows of n pairs, row r from rngs[r].

        A leaf law of two or more methods, all one, as a gaussian law or an
        independent law of two uniform-driven marginals, fills a
        (rows, len(methods), n) block, row-major: one Generator call per row
        on its contiguous (len(methods), n) sub-block, as 2n values from one
        call are the bits of two calls of n.  One copy of the block's
        transpose then gives the transform its (len(methods), rows * n)
        buffers; for one row it is a view.  Any other law takes one
        :meth:`_fill` per row.
        """
        if len(self.methods) > 1 and len(set(self.methods)) == 1:
            draw = getattr(np.random.Generator, self.methods[0])
            block = np.empty((len(rngs), len(self.methods), n))
            for row, rng in zip(block, rngs):
                draw(rng, out=row)
            return np.ascontiguousarray(block.transpose(1, 0, 2)).reshape(len(self.methods), -1)
        raw = self._raw_buffers(len(rngs) * n)
        for r, rng in enumerate(rngs):
            self._fill(rng, raw, r * n, n)
        return raw

    def _raw_buffers(self, size: int):
        """Raw buffers for up to ``size`` pairs."""
        return np.empty((len(self.methods), size))

    def _fill(self, rng: np.random.Generator, raw, at: int, k: int) -> None:
        """Fill pairs at..at+k-1 of ``raw`` from ``rng`` alone: a row of a
        block, or a mixture component's share of one; k values of each of
        ``methods`` in turn."""
        for m, method in enumerate(self.methods):
            getattr(rng, method)(out=raw[m, at:at + k])

    @abstractmethod
    def transform(self, raw, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys) of the first ``size`` pairs in ``raw``, flat.

        The transform works elementwise and may overwrite ``raw``.
        """

    @abstractmethod
    def describe(self) -> dict:
        """JSON-ready echo of the law's construction parameters."""

    def sample(self, n: int, rng: np.random.Generator) -> PairedSample:
        try:
            n = operator.index(n)
        except TypeError:
            raise InputFormatError(f"n must be an integer, got {n!r}") from None
        if n < 2:  # before any draw, in PairedSample's words
            raise InputFormatError(f"need at least 2 paired observations, got {n}")
        xs, ys = self.draw_block([rng], n)
        return PairedSample._adopt(xs[0], ys[0])

    def bivariate_moments(self) -> BivariateMoments:
        """Exact central moments through fourth order, about the law's mean."""
        return self._central_moments()

    def _central_moments(self) -> BivariateMoments:
        mu_x, mu_y = self.mean()  # read once; then eight lookups, in field order
        return BivariateMoments(mu_x, mu_y, *(
            self.moment_about(i, j, mu_x, mu_y)
            for i, j in ((2, 0), (0, 2), (1, 1), (2, 2), (3, 1), (1, 3), (4, 0), (0, 4))))


class GaussianLaw(BivariateLaw):
    """Standard bivariate Gaussian with correlation rho, |rho| < 1.

    Pairs are generated as (Z1, rho Z1 + sqrt(1 - rho^2) Z2) from two
    independent columns of ziggurat standard normals, Z1 drawn in full
    before Z2; the ziggurat's rare rejections call ``exp`` and a
    logarithm, so the last bits can depend on the platform's C library.
    Raw moments follow the Isserlis recursion

        M(i, j) = (i - 1) M(i-2, j) + rho j M(i-1, j-1),

    with M(0, j) = (j - 1) M(0, j-2), M(0, 0) = 1, in a memo filled bottom-up.
    """

    kind = "gaussian"
    methods = ("standard_normal", "standard_normal")

    def __init__(self, rho: float):
        rho = float(rho)
        if not math.isfinite(rho):
            raise InputFormatError(f"gaussian rho must be finite, got {rho!r}")
        if abs(rho) >= 1.0 - AFFINE_RHO_TOL:
            raise AffineDependenceError(
                f"affine dependence, asymptotics excluded (gaussian rho = {rho!r})")
        self.rho_param = rho
        self._memo: dict[tuple[int, int], float] = {(0, 0): 1.0}

    def describe(self) -> dict:
        return {"kind": "gaussian", "rho": self.rho_param}

    def transform(self, raw, size):
        z1, ys = raw[:, :size]
        np.multiply(ys, math.sqrt(1.0 - self.rho_param ** 2), out=ys)
        for at in range(0, size, _CHUNK):  # no temporary of the block's size
            ys[at:at + _CHUNK] += self.rho_param * z1[at:at + _CHUNK]
        return z1, ys

    def _rule(self, m):
        """The standard normal grid, mapped to (z1, rho z1 + sqrt(1 - rho^2) z2)."""
        return _product_rule(*[MARGINALS["standard_normal"].rule(m)] * 2, self.transform)

    def raw_moment(self, i: int, j: int) -> float:
        """M(i, j): fills every missing M(a, b), a <= i and b <= j, b by b
        then a by a, so both operands of an entry are in the memo before it."""
        _check_exponents(i, j)
        memo = self._memo
        if (i, j) not in memo:
            get, rho = memo.get, self.rho_param
            for b in range(j + 1):
                for a in range(i + 1):
                    if (a, b) not in memo:
                        memo[a, b] = ((a - 1) * get((a - 2, b), 0.0)
                                      + rho * b * get((a - 1, b - 1), 0.0) if a > 0
                                      else (b - 1) * get((0, b - 2), 0.0))
        return memo[i, j]


class IndependentLaw(BivariateLaw):
    """Independent coordinates with named standardized marginals.

    Sampling draws the full x column first, then the full y column, from
    the same stream.  Raw moments factor: E[X^i Y^j] = E[X^i] E[Y^j], memoised.
    """

    kind = "independent"

    def __init__(self, marginal_x, marginal_y):
        self.marginal_x = get_marginal(marginal_x)
        self.marginal_y = get_marginal(marginal_y)
        self.methods = (self.marginal_x.method, self.marginal_y.method)
        self._memo: dict[tuple[int, int], float] = {}

    def describe(self) -> dict:
        return {"kind": "independent",
                "marginal_x": self.marginal_x.name,
                "marginal_y": self.marginal_y.name}

    def transform(self, raw, size):
        return (self.marginal_x.transform(raw[0, :size]),
                self.marginal_y.transform(raw[1, :size]))

    def raw_moment(self, i: int, j: int) -> float:
        _check_exponents(i, j)
        if (i, j) not in self._memo:
            self._memo[i, j] = self.marginal_x.raw_moment(i) * self.marginal_y.raw_moment(j)
        return self._memo[i, j]

    def _rule(self, m):
        """The tensor product of the marginals' m-point rules."""
        if None in (self.marginal_x.rule, self.marginal_y.rule):
            return super()._rule(m)  # a MomentError
        return _product_rule(self.marginal_x.rule(m), self.marginal_y.rule(m))


class MixtureLaw(BivariateLaw):
    """Finite mixture of bivariate laws with positive weights summing to 1.

    Sampling first draws one uniform per observation to pick components,
    then draws each component's sub-batch in declaration order from the
    same stream; both stages are deterministic given the stream state.

    The raw buffers are the picks, a count of pairs filled per component,
    and each component's own raw buffers, which the first fill makes: sized
    by its picks if it covers every pair, else for every pair.  A fill of k
    pairs draws k picks, then appends each picked component's sub-batch.
    The transform runs once per component over all its pairs and scatters
    them to the positions that picked it: pairs fill in position order, so
    a component's j-th pair goes to its j-th pick.  A moment about a point
    is the weighted sum of the components' moments about it; central ones
    centre each part at the mixture's mean.  A mixture nests at most
    ``_MAX_MIXTURE_DEPTH`` mixtures, itself included: ``depth`` is 1 plus
    its deepest component's.
    """

    kind = "mixture"

    def __init__(self, components: Sequence[BivariateLaw], weights: Sequence[float]):
        components = tuple(components)
        weights = tuple(float(w) for w in weights)
        if not components:
            raise InputFormatError("mixture needs at least one component")
        if not all(isinstance(c, BivariateLaw) for c in components):
            raise InputFormatError("mixture components must be bivariate laws")
        if len(components) != len(weights):
            raise InputFormatError(
                f"{len(components)} components but {len(weights)} weights")
        if not all(math.isfinite(w) for w in weights):
            raise InputFormatError(f"mixture weights must be finite, got {list(weights)}")
        if any(w <= 0.0 for w in weights):
            raise InputFormatError("mixture weights must be positive")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise InputFormatError(
                f"mixture weights sum to {sum(weights)!r}, not 1 within {WEIGHT_SUM_TOL}")
        self.depth = 1 + max((c.depth for c in components if isinstance(c, MixtureLaw)), default=0)
        if self.depth > _MAX_MIXTURE_DEPTH:
            raise InputFormatError(f"mixture nests more than {_MAX_MIXTURE_DEPTH} mixtures")
        self.components = components
        self.weights = weights
        self._memo: dict[tuple, float] = {}
        self._mu: Optional[tuple[float, float]] = None
        cut = np.cumsum(weights)
        cut[-1] = 1.0  # guard the top bin against rounding in the cumsum
        self._cut = cut

    def describe(self) -> dict:
        return {"kind": "mixture",
                "components": [c.describe() for c in self.components],
                "weights": list(self.weights)}

    def _raw_buffers(self, size):
        return [np.empty(size, dtype=np.intp), [0] * len(self.components), None]

    def _fill(self, rng, raw, at, k):
        picks, filled, parts = raw
        row = picks[at:at + k]
        row[:] = self._cut.searchsorted(rng.random(k), side="right")
        counts = np.bincount(row, minlength=len(self.components)).tolist()
        if parts is None:  # later fills' picks are not drawn yet: exact sizes only for a lone fill
            parts = raw[2] = [comp._raw_buffers(c if k == picks.size else picks.size)
                              for comp, c in zip(self.components, counts)]
        for c, comp in enumerate(self.components):
            if counts[c]:
                comp._fill(rng, parts[c], filled[c], counts[c])
                filled[c] += counts[c]

    def transform(self, raw, size):
        picks, filled, parts = raw
        picks = picks[:size]
        xs = np.empty(size)
        ys = np.empty(size)
        for c, comp in enumerate(self.components):
            if filled[c]:
                at = np.flatnonzero(picks == c)
                xs[at], ys[at] = comp.transform(parts[c], filled[c])
            parts[c] = None  # frees the component's buffers before the next one's transform
        return xs, ys

    def mean(self):
        if self._mu is None:
            self._mu = tuple(sum(w * c.mean()[a] for w, c in zip(self.weights, self.components))
                             for a in (0, 1))
        return self._mu

    def moment_about(self, i, j, px, py):
        """sum_k w_k E_k[(X - px)^i (Y - py)^j], memoised by the exponents'
        types too: 2.0 hashes as 2, and a part may refuse 2.0."""
        key = i, j, type(i), type(j), px, py
        if key not in self._memo:
            self._memo[key] = sum(w * c.moment_about(i, j, px, py)
                                  for w, c in zip(self.weights, self.components))
        return self._memo[key]

    def _rule(self, m):
        """The union of the components' m-point rules, each weighted by its part."""
        rules = [c._rule(m) for c in self.components]
        return _rule_law(*(np.concatenate(parts) for parts in zip(*(
            (r.atom_xs, r.atom_ys, w * r.atom_weights) for w, r in zip(self.weights, rules)))))


class DiscreteLaw(BivariateLaw):
    """A finitely supported law; every expectation is an exact finite sum.

    Integration works for any evaluable function, not just polynomials:
    E[f] enumerates the atoms through f's callable, and a moment about a
    point centres the atoms there.  So the class is an independent
    cross-check oracle, sharing no code path with the polynomial moment
    bookkeeping; a covariance matrix is a Gram matrix of centred atom values.
    """

    kind = "discrete"
    methods = ("random",)

    def __init__(self, xs: Sequence[float], ys: Sequence[float], weights: Sequence[float]):
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float).reshape(-1)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if xs.size == 0 or xs.size != ys.size or xs.size != w.size:
            raise InputFormatError(
                f"atom arrays must share one positive length, got {xs.size}, {ys.size}, {w.size}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)) and np.all(np.isfinite(w))):
            raise InputFormatError("non-finite atom or weight")
        if np.any(w <= 0.0):
            raise InputFormatError("atom weights must be positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InputFormatError(
                f"atom weights sum to {float(w.sum())!r}, not 1 within {WEIGHT_SUM_TOL}")
        self.atom_xs = xs
        self.atom_ys = ys
        self.atom_weights = w / w.sum()
        self._cut = np.cumsum(self.atom_weights)
        self._cut[-1] = 1.0
        self._mu: Optional[tuple[float, float]] = None

    def describe(self) -> dict:
        return {"kind": "discrete",
                "xs": self.atom_xs.tolist(),
                "ys": self.atom_ys.tolist(),
                "weights": self.atom_weights.tolist()}

    def transform(self, raw, size):
        u = raw[0, :size]
        idx = self._cut.searchsorted(u, side="right")
        return np.take(self.atom_xs, idx, out=u), self.atom_ys[idx]

    def _rule(self, m):
        """This law: its atoms are exact at every m."""
        return self

    def expectation(self, f: StatFunction) -> float:
        vals = np.asarray(f(self.atom_xs, self.atom_ys), dtype=float)
        return self._weighted_mean(vals, lambda: f.label)

    def _weighted_mean(self, vals: np.ndarray,
                       label: Callable[[], str] = lambda: "moment") -> float:
        """sum_i w_i vals_i; ``label()`` names the values if one is not finite."""
        # One reduction, with no floating-point warning.  The weights are positive
        # and finite, so a non-finite value makes the total non-finite; only then
        # are the values scanned.  Finite values whose sum overflows give its inf.
        total = float(np.vdot(self.atom_weights, vals))
        if not math.isfinite(total) and not np.all(np.isfinite(vals)):
            raise MomentError(f"{_MOMENT_DIVERGES} ({label()}: non-finite at an atom)")
        return total

    def _central_moments(self) -> BivariateMoments:
        return central_moments(self._weighted_mean, self.atom_xs, self.atom_ys)

    def mean(self):
        if self._mu is None:  # the bits of bivariate_moments()
            self._mu = (corrected_mean(self._weighted_mean, self.atom_xs),
                        corrected_mean(self._weighted_mean, self.atom_ys))
        return self._mu

    def moment_about(self, i, j, px, py):
        """The atoms' weighted mean of (x - px)^i (y - py)^j.  A power that is
        not finite at an atom, as of a negative atom to the 1.5, a zero atom to
        the -1 or an atom near 1e100 to the 4th, is the MomentError naming
        moment (i,j), with no warning."""
        with np.errstate(all="ignore"):
            vals = (self.atom_xs - px) ** i * (self.atom_ys - py) ** j
        return self._weighted_mean(vals, lambda: f"moment ({i},{j})")

    def _gamma(self, fs):
        """(V sqrt(w)) (V sqrt(w))^T, each row of V a function's atom values less
        their weighted mean: a shift cancels there, not in E[fg] - E[f]E[g].  If an
        entry is not finite, the first pair i <= j whose f*g is non-finite at an atom is named."""
        with np.errstate(invalid="ignore"):  # inf - inf or 0 * inf: named below
            v, a = self._centred(fs)
            value = a @ a.T
            if not np.isfinite(value).all():
                for i, (f, vf) in enumerate(zip(fs, v)):
                    for g, vg in zip(fs[i:], v[i:]):
                        self._weighted_mean(vf * vg, lambda: (f * g).label)
        return value, np.zeros(value.shape), "exact"  # only sums overflow

    def _centred(self, fs):
        """``fs`` on the atoms, a row each, and the rows less their means, times sqrt(w)."""
        v = np.array([f(self.atom_xs, self.atom_ys) for f in fs], dtype=float)
        return v, (v - (v @ self.atom_weights)[:, None]) * np.sqrt(self.atom_weights)


def law_from_spec(spec: dict, _depth: int = 0) -> BivariateLaw:
    """Build a law from its JSON-ready description (inverse of describe())."""
    if not isinstance(spec, dict):
        raise InputFormatError(f"law spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "gaussian":
            return GaussianLaw(spec["rho"])
        if kind == "independent":
            return IndependentLaw(spec["marginal_x"], spec["marginal_y"])
        if kind == "mixture":
            if _depth == _MAX_MIXTURE_DEPTH:
                raise InputFormatError(f"law spec nests more than {_MAX_MIXTURE_DEPTH} mixtures")
            comps = [law_from_spec(c, _depth + 1) for c in spec["components"]]
            return MixtureLaw(comps, spec["weights"])
        if kind == "discrete":
            return DiscreteLaw(spec["xs"], spec["ys"], spec["weights"])
    except KeyError as exc:
        raise InputFormatError(f"law spec for kind {kind!r} is missing {exc}") from None
    except EmpcalcError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"law spec for kind {kind!r} has a malformed value: {exc}") from None
    raise InputFormatError(
        f"unknown law kind {kind!r}; expected gaussian, independent, mixture, or discrete")
