"""First-order asymptotic expansions of plug-in statistics.

An :class:`AsymptoticExpansion` holds a value and a gradient ``terms``, the
pairs (s_j, f_j) of distinct base functions f_j, standing for a statistic
T_n that satisfies T_n = value + n^{-1/2} G_n(sum_j s_j f_j) + o_P(n^{-1/2}),
where G_n is the centered-and-scaled empirical average implemented in
:mod:`empcalc.empirical`.  One rule, the delta method, pushes expansions
through any map g that is C^1 at the expansion point: for expansions
(A_1, L_1), .., (A_k, L_k),

    delta: g at ((A_1, L_1), .., (A_k, L_k))
           -> (g(A_1, .., A_k), sum_j d_j g(A_1, .., A_k) L_j),

dropping remainders that stay o_P(n^{-1/2}).  On gradients this is the
chain rule.  For T_n = g(P_n f_1, .., P_n f_k) it is van der Vaart,
*Asymptotic Statistics* (1998), Thm 3.1: sqrt(n)(T_n - g(P f)) is
asymptotically N(0, s^T Gamma_F s) with s = grad g(P f).  The operators
+ - * / on expansions are this rule with the gradients (1, 1), (1, -1),
(b, a) and (1/b, -a/b^2).

The influence sum_j s_j f_j, a :class:`~empcalc.functions.StatFunction`, is
built only when read, so expansions started from polynomial functions
keep an exact polynomial influence.
"""

from __future__ import annotations

from typing import Callable, Sequence

import functools
import math

from .errors import ExpansionError
from .functions import StatFunction, constant

# denominators smaller than this are treated as asymptotically degenerate
DIV_FLOOR = 1e-12


class AsymptoticExpansion:
    """A root-n normal expansion: ``value`` and the gradient ``terms``, (slope,
    base function) pairs.  ``AsymptoticExpansion(value, influence)`` is the one
    term (1.0, influence); ``label`` names the influence, if one was given."""

    def __init__(self, value: float, influence: StatFunction):
        if not isinstance(influence, StatFunction):
            raise ExpansionError("influence must be a StatFunction")
        self._set(value, ((1.0, influence),), influence.label)
        self.influence = influence  # the cached sum of its one term

    def _set(self, value: float, terms, label) -> "AsymptoticExpansion":
        """Fill a new expansion; its influence is built when first read."""
        if not math.isfinite(value):
            raise ExpansionError(f"non-finite expansion value: {value!r}")
        self.value, self.terms, self.label = value, terms, label
        return self

    @functools.cached_property
    def influence(self) -> StatFunction:
        """sum_j slope_j f_j, summed left to right as slope * f when first read."""
        h = None
        for s, f in self.terms:
            h = s * f if h is None else h + s * f
        return h if self.label is None else h.with_label(self.label)

    def with_label(self, label: str) -> "AsymptoticExpansion":
        """The same expansion, its influence labelled ``label``."""
        return object.__new__(AsymptoticExpansion)._set(self.value, self.terms, label)

    # arithmetic sugar over delta
    def __add__(self, other):
        return delta(lambda a, b: a + b, lambda a, b: (1.0, 1.0), self, _coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return delta(lambda a: -a, lambda a: (-1.0,), self)

    def __sub__(self, other):
        return delta(lambda a, b: a - b, lambda a, b: (1.0, -1.0), self, _coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        return delta(lambda a, b: a * b, lambda a, b: (b, a), self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient rule, defined only away from a vanishing denominator."""
        other = _coerce(other)
        if abs(other.value) <= DIV_FLOOR:
            raise ExpansionError(
                f"division by asymptotically degenerate denominator "
                f"(|{other.value!r}| <= {DIV_FLOOR})")
        return delta(lambda a, b: a / b, lambda a, b: (1.0 / b, -(a / b ** 2)), self, other)


def _coerce(obj) -> AsymptoticExpansion:
    if isinstance(obj, AsymptoticExpansion):
        return obj
    return constant_expansion(float(obj))


def constant_expansion(c: float) -> AsymptoticExpansion:
    """A degenerate expansion: fixed value, zero influence."""
    return AsymptoticExpansion(float(c), constant(0.0).with_label("0"))


def from_mean(f: StatFunction, mean: float) -> AsymptoticExpansion:
    """Expansion of the empirical average of ``f`` around its mean.

    The sample mean of f(Z_i) equals  mean + n^{-1/2} G_n(f)  exactly, so
    the influence is f itself and no remainder is dropped.
    """
    try:
        mean = float(mean)
    except (TypeError, ValueError):
        raise ExpansionError(f"the mean of {f.label} is not a number: {mean!r}") from None
    if not math.isfinite(mean):
        raise ExpansionError(f"non-finite mean for {f.label}: {mean!r}")
    return AsymptoticExpansion(mean, f)


def delta(g: Callable[..., float], grad: Callable[..., Sequence[float]],
          *expansions: AsymptoticExpansion) -> AsymptoticExpansion:
    """Delta method: push k expansions through a map ``g`` that is C^1 there.

    ``g`` and ``grad`` take the k expansion values as k arguments; ``grad``
    returns the k partial derivatives.  Both are evaluated at the expansion
    point only and must be finite there, or the expansion does not exist.
    A term (s, f) of expansion j becomes (d_j g * s, f); the slopes of one f
    object are summed, in order of first appearance.  No function is built.
    """
    if not expansions:
        raise ExpansionError("delta method needs at least one expansion")
    point = [e.value for e in expansions]
    try:
        value = float(g(*point))
        slopes = [float(s) for s in grad(*point)]
    except (ArithmeticError, ValueError) as exc:
        raise ExpansionError(
            f"delta method inapplicable at expansion point {point!r}: {exc}") from exc
    if len(slopes) != len(expansions):
        raise ExpansionError(
            f"delta method inapplicable at expansion point {point!r}: "
            f"{len(slopes)} partials for {len(expansions)} expansions")
    if not (math.isfinite(value) and all(map(math.isfinite, slopes))):
        raise ExpansionError(
            f"delta method inapplicable at expansion point {point!r}: "
            f"g={value!r}, grad={slopes!r}")
    merged: dict = {}
    for slope, e in zip(slopes, expansions):
        for s, f in e.terms:
            merged[f] = merged[f] + slope * s if f in merged else slope * s
    return object.__new__(AsymptoticExpansion)._set(
        value, tuple((s, f) for f, s in merged.items()), None)
