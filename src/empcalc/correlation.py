"""Linear correlation: population value, plug-in estimate, and asymptotics.

This is the package's worked example.  For a square-integrable pair (X, Y)
with correlation rho, the plug-in sample correlation rho_n admits the
expansion  rho_n = rho + n^{-1/2} G_n(H) + o_P(n^{-1/2})  with influence

    H(x, y) = u v - (rho/2) (u^2 + v^2),     u = (x - mu_x)/sigma_x,
                                             v = (y - mu_y)/sigma_y,

so sqrt(n) (rho_n - rho) is asymptotically N(0, sigma^2) where sigma^2 is
the closed form computed by :func:`sigma_squared` from the fourth-order
central moment vocabulary in :class:`BivariateMoments`.  The same
expansion also follows from one delta method on five sample means
(:func:`correlation_expansion`), which this package's acceptance suite
checks against the closed form; the two influences differ by an additive
constant, which the covariance functional ignores.

Moment conventions: central mixed moments are

    m_{pq} = E[(X - mu_x)^p (Y - mu_y)^q],

and all sample moments use denominator n, not n - 1, matching the plug-in
definitions throughout.  A law's ``bivariate_moments()`` looks up its
mean and m_{pq}.  :func:`central_moments` takes them from arrays: a
sample's under the array mean, a discrete law's atoms under the weighted
mean.  One formula, :func:`rho_from_moments`, turns moments into a
correlation: rho of a law's, rho_n of a sample's (:func:`compute_rho_n`,
``estimate`` and the z-test), and the value of the expansion is the same
quotient.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .empirical import PSD_EIGENVALUE_FLOOR
from .errors import AffineDependenceError, DegenerateSampleError, MomentError
from .expansion import AsymptoticExpansion, delta, from_mean
from .functions import StatFunction, pi1, pi2
from .sample import PairedSample

# |rho| this close to 1 is indistinguishable from exact affine dependence
# in double precision (a collinear sample puts rho_n here), and the normal
# asymptotics below are degenerate there.
AFFINE_RHO_TOL = 1e-12

_INEQ_SLACK = 1e-9  # relative slack for moment inequalities on empirical input
KURTOSIS_WARN = 100.0  # plug-in m40/var^2 above which estimate_moments warns
DEGENERATE_VARIANCE_FLOOR = 1e-12  # a variance below this cannot standardize a statistic


@dataclass(frozen=True)
class BivariateMoments:
    """Central moment vocabulary of a bivariate law, through fourth order.

    Fields
    ------
    mu_x, mu_y : means
    var_x, var_y : variances, strictly positive
    cov_xy : covariance
    m22, m31, m13 : central mixed moments E[(X-mu_x)^p (Y-mu_y)^q] for
        (p, q) = (2, 2), (3, 1), (1, 3)
    m40, m04 : fourth central moments of each marginal

    Construction validates the moment inequalities every genuine law
    satisfies: positive variances, Jensen bounds m40 >= var_x^2 and
    m04 >= var_y^2, m22 >= 0, and |cov_xy| <= sqrt(var_x var_y).
    Equality in the last bound is the affine case; it is representable
    (the moments exist) but the asymptotic operations reject it.
    """

    mu_x: float
    mu_y: float
    var_x: float
    var_y: float
    cov_xy: float
    m22: float
    m31: float
    m13: float
    m40: float
    m04: float

    def __post_init__(self):
        for name in ("mu_x", "mu_y", "var_x", "var_y", "cov_xy",
                     "m22", "m31", "m13", "m40", "m04"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise MomentError(f"inconsistent moment set: non-finite {name}")
            object.__setattr__(self, name, v)
        if self.var_x <= 0.0 or self.var_y <= 0.0:
            raise DegenerateSampleError("degenerated marginal")
        if self.m22 < -_INEQ_SLACK * max(1.0, abs(self.m40), abs(self.m04)):
            raise MomentError(f"inconsistent moment set: m22 = {self.m22:g} < 0")
        if self.m40 < self.var_x ** 2 * (1.0 - _INEQ_SLACK):
            raise MomentError(
                f"inconsistent moment set: m40 = {self.m40:g} < var_x^2 = {self.var_x ** 2:g}")
        if self.m04 < self.var_y ** 2 * (1.0 - _INEQ_SLACK):
            raise MomentError(
                f"inconsistent moment set: m04 = {self.m04:g} < var_y^2 = {self.var_y ** 2:g}")
        bound = math.sqrt(self.var_x * self.var_y) * (1.0 + _INEQ_SLACK)
        if abs(self.cov_xy) > bound:
            raise MomentError(
                f"inconsistent moment set: |cov_xy| = {abs(self.cov_xy):g} exceeds "
                f"sqrt(var_x var_y) = {math.sqrt(self.var_x * self.var_y):g}")

    @property
    def sd_x(self) -> float:
        return math.sqrt(self.var_x)

    @property
    def sd_y(self) -> float:
        return math.sqrt(self.var_y)


def rho_from_moments(m: BivariateMoments) -> float:
    """cov_xy / sqrt(var_x var_y), clipped to [-1, 1]; the one place rho is computed."""
    return max(-1.0, min(1.0, m.cov_xy / math.sqrt(m.var_x * m.var_y)))


def _rho_checked(m: BivariateMoments) -> float:
    rho = rho_from_moments(m)
    if abs(rho) >= 1.0 - AFFINE_RHO_TOL:
        raise AffineDependenceError("affine dependence, asymptotics excluded")
    return rho


def corrected_mean(mean: Callable, x) -> float:
    """``mean(x)`` corrected once by its residuals' mean; 0.0 stays 0.0."""
    mu = mean(x)
    return mu + mean(x - mu)


def central_moments(mean: Callable, x, y) -> BivariateMoments:
    """Central moments through fourth order of the arrays x and y under ``mean``.

    ``mean`` is a sample's array mean or a discrete law's weighted mean of
    its atoms.  Each mean is corrected once by its residuals' mean (Chan,
    Golub and LeVeque, 1983), which keeps it within about an ulp of the
    largest value at any shift.  Then u = x - mu_x and v = y - mu_y, and
    every moment is the mean of a product of u^2, v^2 and uv.  Data beyond
    the float range reach a moment as inf or nan: the typed error, no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu_x, mu_y = corrected_mean(mean, x), corrected_mean(mean, y)
        u, v = x - mu_x, y - mu_y
        uu, vv, uv = u * u, v * v, u * v
        return BivariateMoments(
            mu_x=mu_x, mu_y=mu_y, var_x=mean(uu), var_y=mean(vv), cov_xy=mean(uv),
            m22=mean(uu * vv), m31=mean(uu * uv), m13=mean(uv * vv),
            m40=mean(uu * uu), m04=mean(vv * vv))


def compute_rho_n(s: PairedSample) -> float:
    """Plug-in sample correlation: :func:`rho_from_moments` of the sample's
    :func:`central_moments`, the rho_n that ``estimate`` reports."""
    return rho_from_moments(central_moments(lambda a: float(a.mean()), s.xs, s.ys))


def estimate_moments(s: PairedSample) -> BivariateMoments:
    """Plug-in central moments of a sample (denominator n throughout):
    :func:`central_moments` of its columns under the array mean, so the
    sample's moments are taken as a law's are.

    When a marginal's standardized fourth moment m40/var^2 exceeds
    ``KURTOSIS_WARN`` a warning is emitted: the fourth-moment hypothesis
    behind the variance formulas is then suspect, but service is not
    refused.
    """
    m = central_moments(lambda a: float(a.mean()), s.xs, s.ys)
    kurt = max(m.m40 / m.var_x ** 2, m.m04 / m.var_y ** 2)
    if kurt > KURTOSIS_WARN:
        warnings.warn(
            f"plug-in kurtosis {kurt:.3g} exceeds {KURTOSIS_WARN:g}; "
            "fourth-moment asymptotics may be unreliable", stacklevel=2)
    return m


def correlation_influence(m: BivariateMoments) -> StatFunction:
    """The influence function H of the sample correlation, standardized form.

    H(x, y) = u v - (rho/2)(u^2 + v^2) with u, v the standardized
    coordinates.  E[H] = 0 under the law with these moments: E[uv] = rho
    and E[u^2] = E[v^2] = 1, so the two halves cancel exactly.
    """
    rho = _rho_checked(m)
    u = (pi1 - m.mu_x) * (1.0 / m.sd_x)
    v = (pi2 - m.mu_y) * (1.0 / m.sd_y)
    h = u * v - (rho / 2.0) * (u ** 2 + v ** 2)
    return h.with_label(f"corr_influence(rho={rho:.6g})")


def _rho_of_means(ex, ey, exy, ex2, ey2):
    # rho_from_moments' quotient: at the law's centred means (0, 0, cov_xy,
    # var_x, var_y) this is exactly the rho that `variance` reports
    return (exy - ex * ey) / math.sqrt((ex2 - ex * ex) * (ey2 - ey * ey))


def _rho_of_means_grad(ex, ey, exy, ex2, ey2):
    vx = ex2 - ex * ex
    vy = ey2 - ey * ey
    d = math.sqrt(vx) * math.sqrt(vy)
    rho = (exy - ex * ey) / d
    return (rho * ex / vx - ey / d, rho * ey / vy - ex / d, 1.0 / d,
            -rho / (2.0 * vx), -rho / (2.0 * vy))


def correlation_expansion(m: BivariateMoments) -> AsymptoticExpansion:
    """Expansion of rho_n by one delta method on five sample means.

    With u = x - mu_x and v = y - mu_y, the law's centred coordinates,
    rho_n = g(mean(u), mean(v), mean(uv), mean(u^2), mean(v^2)) with

        g(a, b, c, d, e) = (c - a b) / (sqrt(d - a^2) sqrt(e - b^2)),

    because the sample correlation is shift-invariant.  The five are built
    by the function algebra, and every polynomial law integrates them about
    its mean, so for the law of ``m`` their moments are the central ones:
    no raw moment var + mu^2 is formed and a large shift costs no precision.
    Their means are 0, 0, cov_xy, var_x and var_y.  The gradient is
    d_j g(P f) over those five functions; the slopes of u and v are exactly
    0 there, so the variance integrates uv, u^2 and v^2 only.  The influence
    differs from :func:`correlation_influence` by an additive constant only;
    the value is exactly rho_from_moments(m).
    """
    _rho_checked(m)
    u = pi1 - m.mu_x
    v = pi2 - m.mu_y
    return delta(_rho_of_means, _rho_of_means_grad,
                 from_mean(u, 0.0), from_mean(v, 0.0), from_mean(u * v, m.cov_xy),
                 from_mean(u ** 2, m.var_x), from_mean(v ** 2, m.var_y)
                 ).with_label("corr_influence_pipeline")


def sigma_squared(m: BivariateMoments) -> float:
    """Asymptotic variance of sqrt(n)(rho_n - rho), general closed form.

    In standardized moments the expression is

        sigma^2 = (1 + rho^2/2) m22/(var_x var_y)
                  + rho^2 (m40/var_x^2 + m04/var_y^2) / 4
                  - rho (m31/(sd_x^3 sd_y) + m13/(sd_x sd_y^3)).

    For a bivariate Gaussian this collapses to (1 - rho^2)^2.  Requires
    |rho| < 1; a slightly negative result within -1e-10 (floating point
    noise on a degenerate-tending law) is clamped to 0, anything more
    negative means the moments are not the moments of any law.
    """
    rho = _rho_checked(m)
    sx, sy = m.sd_x, m.sd_y
    value = ((1.0 + rho ** 2 / 2.0) * m.m22 / (m.var_x * m.var_y)
             + rho ** 2 * (m.m40 / m.var_x ** 2 + m.m04 / m.var_y ** 2) / 4.0
             - rho * (m.m31 / (sx ** 3 * sy) + m.m13 / (sx * sy ** 3)))
    if value < PSD_EIGENVALUE_FLOOR:
        raise MomentError(f"inconsistent moment set: sigma^2 = {value:g} < 0")
    return max(value, 0.0)


def sigma1_squared(m: BivariateMoments) -> float:
    """Asymptotic variance of sqrt(n) rho_n when rho = 0: m22/(var_x var_y)."""
    return m.m22 / (m.var_x * m.var_y)


class ZeroCorrelationTest(NamedTuple):
    z: float
    p_value: float


def test_zero_correlation(s: PairedSample, *,
                          moments: Optional[BivariateMoments] = None) -> ZeroCorrelationTest:
    """Two-sided z-test of rho = 0 based on the null asymptotics.

    z = sqrt(n) rho_n / sigma1_hat with rho_n = rho_from_moments(m) and
    sigma1_hat^2 the plug-in m22/(var_x var_y), both from the one moment
    set m; under independence z is asymptotically N(0, 1).  The p-value is
    erfc(|z|/sqrt(2)), which keeps its relative accuracy far into the tail
    instead of rounding to 0.  The normal approximation is poor below a
    few dozen observations, so n < 30 draws a warning.

    A caller that already holds ``estimate_moments(s)`` passes it as
    ``moments``; it is then not computed again.
    """
    if s.n < 30:
        warnings.warn(f"n = {s.n} < 30: the normal approximation may be unreliable",
                      stacklevel=2)
    m = estimate_moments(s) if moments is None else moments
    s1_sq = sigma1_squared(m)
    if s1_sq < DEGENERATE_VARIANCE_FLOOR:
        raise DegenerateSampleError(f"plug-in sigma1^2 = {s1_sq:g} is below "
                                    f"{DEGENERATE_VARIANCE_FLOOR:g}; z statistic undefined")
    z = math.sqrt(s.n) * rho_from_moments(m) / math.sqrt(s1_sq)
    return ZeroCorrelationTest(z, math.erfc(abs(z) / math.sqrt(2.0)))
