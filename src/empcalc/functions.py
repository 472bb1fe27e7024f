"""Real-valued functions of a bivariate observation, with an algebra.

A :class:`StatFunction` wraps a callable f(x, y) together with a label for
diagnostics and, when available, an exact polynomial representation.  The
polynomial form is a dict mapping (i, j) exponent pairs to coefficients,
f(x, y) = sum c_{ij} x^i y^j.  Sums, differences, products, scalar multiples,
and nonnegative integer powers of polynomial functions stay polynomial, which
lets moment oracles integrate them exactly, each about its own law's mean;
any function built another way simply carries ``poly=None`` and is integrated
on a law's Gauss rules.

Calling a function is the one place its inputs and output are shaped: x and
y become float64 arrays of their broadcast shape, ``fn`` is called once on
them, and its result is cast to float64 and must have that shape.  So ``fn``
may be written for its own coordinates alone (``lambda x, y: np.cos(x)``, or
an indicator ``lambda x, y: x > 0``), and a call never hands back an input.

The three coordinate projections used throughout the package are exported
as module-level singletons:

``pi1``  first coordinate,  (x, y) -> x
``pi2``  second coordinate, (x, y) -> y
``p``    product,           (x, y) -> x y
"""

from __future__ import annotations

import numbers
import operator
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import EvaluationError

Poly = Mapping[tuple[int, int], float]


def _poly_clean(d: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    return {k: v for k, v in d.items() if v != 0.0}


def _poly_add(a: Poly, b: Poly) -> dict[tuple[int, int], float]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return _poly_clean(out)


def _poly_scale(a: Poly, c: float) -> dict[tuple[int, int], float]:
    return _poly_clean({k: c * v for k, v in a.items()})


def _poly_mul(a: Poly, b: Poly) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0.0) + u * v
    return out if all(out.values()) else _poly_clean(out)


def _poly_pow(a: Poly, k: int) -> Poly:
    """a^k for k >= 1: up to k = 4 the repeated product a*a*...*a, so low powers keep
    its bits; above, the square of a^(k // 2), times a if k is odd."""
    if k <= 4:
        out = a
        for _ in range(k - 1):
            out = _poly_mul(out, a)
        return out
    half = _poly_pow(a, k // 2)
    out = _poly_mul(half, half)
    return _poly_mul(out, a) if k % 2 else out


def _needs_parens(label: str) -> bool:
    # crude but adequate: wrap anything that reads as a sum
    return (" + " in label) or (" - " in label)


class StatFunction:
    """A function of one observation, closed under a small algebra.

    Parameters
    ----------
    fn : callable
        Vectorized evaluation ``fn(x, y)``.  The call passes it x and y as
        float64 arrays of one shape and casts what it returns to float64; a
        result of any other shape, as a scalar, raises EvaluationError.
    label : str
        Human-readable name used in diagnostics and error messages.
    poly : mapping or None
        Exact polynomial representation ``{(i, j): c}``, sum c_{ij} x^i y^j,
        or None when the function is not known to be polynomial.
    """

    __slots__ = ("fn", "label", "poly")

    def __init__(self, fn: Callable, label: str, poly: Optional[Poly] = None):
        self.fn = fn
        self.label = label
        self.poly = dict(poly) if poly is not None else None

    def __call__(self, x, y):
        if not (type(x) is type(y) is np.ndarray and x.dtype == y.dtype == float
                and x.shape == y.shape):  # the fast path: float64 arrays of one shape
            try:
                x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            except ValueError as exc:  # inputs that do not broadcast, or are not numbers
                raise EvaluationError(f"{self.label}: {exc}") from None
        out = np.asarray(self.fn(x, y), dtype=float)
        if out.shape != x.shape:
            raise EvaluationError(f"{self.label} returned shape {out.shape}, expected {x.shape}")
        return out.copy() if out is x or out is y else out

    def __repr__(self) -> str:
        return f"StatFunction({self.label})"

    def with_label(self, label: str) -> "StatFunction":
        """Same function, new diagnostic label."""
        return StatFunction(self.fn, label, self.poly)

    # -- algebra ---------------------------------------------------------

    def _number(self, op: str, other) -> float:
        """``other`` as the float of ``self op other``, or the EvaluationError naming it."""
        try:
            return float(other)
        except (TypeError, ValueError):
            raise EvaluationError(
                f"{self.label} {op} {other!r}: the operand is not a number") from None

    def __add__(self, other) -> "StatFunction":
        if not isinstance(other, StatFunction):
            c = self._number("+", other)
            return self._plus_number(c, f"{c:g}")
        poly = None
        if self.poly is not None and other.poly is not None:
            poly = _poly_add(self.poly, other.poly)
        f, g = self.fn, other.fn
        return StatFunction(lambda x, y: f(x, y) + g(x, y),
                            f"{self.label} + {other.label}", poly)

    __radd__ = __add__

    def __neg__(self) -> "StatFunction":
        poly = _poly_scale(self.poly, -1.0) if self.poly is not None else None
        f = self.fn
        wrap = _needs_parens(self.label) or self.label.startswith("-")
        label = f"-({self.label})" if wrap else f"-{self.label}"
        return StatFunction(lambda x, y: -f(x, y), label, poly)

    def __sub__(self, other) -> "StatFunction":
        if not isinstance(other, StatFunction):
            c = self._number("-", other)
            return self._plus_number(-c, f"{-c:g}")
        return self + (-other)

    def _plus_number(self, c: float, c_label: str) -> "StatFunction":
        # self + constant(c) with the constant's poly and label, evaluated as f(x, y) + c
        poly = _poly_add(self.poly, {(0, 0): c}) if self.poly is not None else None
        f = self.fn
        return StatFunction(lambda x, y: f(x, y) + c, f"{self.label} + {c_label}", poly)

    def __rsub__(self, other) -> "StatFunction":
        # constant(c) + (-self) with its poly and label, evaluated as c - f(x, y)
        c, neg, f = self._number("-", other), -self, self.fn
        poly = _poly_add({(0, 0): c}, neg.poly) if neg.poly is not None else None
        return StatFunction(lambda x, y: c - f(x, y), f"{c:g} + {neg.label}", poly)

    def __mul__(self, other) -> "StatFunction":
        if isinstance(other, StatFunction):
            poly = None
            if self.poly is not None and other.poly is not None:
                poly = _poly_mul(self.poly, other.poly)
            f, g = self.fn, other.fn
            la = f"({self.label})" if _needs_parens(self.label) else self.label
            lb = f"({other.label})" if _needs_parens(other.label) else other.label
            return StatFunction(lambda x, y: f(x, y) * g(x, y), f"{la}*{lb}", poly)
        c = self._number("*", other)
        poly = _poly_scale(self.poly, c) if self.poly is not None else None
        f = self.fn
        la = f"({self.label})" if _needs_parens(self.label) else self.label
        return StatFunction(lambda x, y: c * f(x, y), f"{c:g}*{la}", poly)

    def __rmul__(self, other) -> "StatFunction":
        return self.__mul__(other)

    def __truediv__(self, other) -> "StatFunction":
        if isinstance(other, StatFunction):
            raise EvaluationError(
                f"{self.label} / {other.label}: division by a function is not supported")
        c = self._number("/", other)
        if c == 0.0:
            raise EvaluationError(f"{self.label} / {other!r}: division by zero")
        return self * (1.0 / c)

    def __rtruediv__(self, other):
        raise EvaluationError(f"{other!r} / {self.label}: division by a function is not supported")

    def __pow__(self, k: int) -> "StatFunction":
        if not isinstance(k, numbers.Integral) or k < 0:  # numpy integers and bools too
            raise EvaluationError("only nonnegative integer powers are supported")
        k = operator.index(k)
        poly = None
        if self.poly is not None:  # f^0 is the constant 1
            poly = _poly_pow(self.poly, k) if k else {(0, 0): 1.0}
        f = self.fn
        la = f"({self.label})" if _needs_parens(self.label) else self.label
        return StatFunction(lambda x, y: f(x, y) ** k, f"{la}^{k}", poly)


def constant(c: float) -> StatFunction:
    """The constant function (x, y) -> c, polynomial of degree zero."""
    c = float(c)
    return StatFunction(lambda x, y: np.full(x.shape, c), f"{c:g}", {(0, 0): c})


pi1 = StatFunction(lambda x, y: x, "pi1", {(1, 0): 1.0})
pi2 = StatFunction(lambda x, y: y, "pi2", {(0, 1): 1.0})
p = StatFunction(lambda x, y: x * y, "p", {(1, 1): 1.0})
