"""Independent references for the benchmark's correctness checks.

Nothing here imports empcalc.  Every expected value is recomputed from
the law specification or the data with numpy and the standard library:

* raw moments of the standardized marginals and of the bivariate
  Gaussian come from their textbook closed forms;
* a discrete law is centred in exact rational arithmetic, so a large
  location shift costs no precision;
* sigma^2 is the second moment of the correlation influence function
  H = u v - (rho/2)(u^2 + v^2), with u, v the standardized coordinates.

The Monte Carlo tolerances are sized to the replicate count so that a
correct program fails a check with probability below ``ALPHA`` per op.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np

# per-check probability that a correct program fails a Monte Carlo check
ALPHA = 1e-9
Z_ALPHA = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)

# relative agreement required of every exact quantity
EXACT_RTOL = 1e-9

# absolute error bound documented for empcalc.normal.standard_normal_cdf
NORMAL_CDF_ATOL = 7.5e-8

# the monomials x^a y^b of the gamma_matrix family {pi1, pi2, p, pi1^2, pi2^2}
FAMILY_EXPONENTS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))

MARGINAL_MOMENT = {
    "standard_normal": lambda k: 0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2))),
    "uniform_std": lambda k: 0.0 if k % 2 else 3.0 ** (k // 2) / (k + 1),
    # E[(E - 1)^k] for a unit exponential E, expanded binomially with E[E^j] = j!
    "exponential_std": lambda k: float(sum(math.comb(k, j) * (-1) ** (k - j) * math.factorial(j)
                                           for j in range(k + 1))),
    "rademacher": lambda k: 0.0 if k % 2 else 1.0,
}


def _gaussian_raw(rho: float, a: int, b: int) -> float:
    # Y = rho X + s Z with X, Z independent N(0, 1)
    s = math.sqrt(1.0 - rho * rho)
    normal = MARGINAL_MOMENT["standard_normal"]
    return sum(math.comb(b, j) * rho ** j * s ** (b - j) * normal(a + j) * normal(b - j)
               for j in range(b + 1))


def _centred_raw(spec: dict, a: int, b: int) -> float:
    """E[X^a Y^b] for the zero-mean kinds: gaussian, independent and their mixtures."""
    kind = spec["kind"]
    if kind == "gaussian":
        return _gaussian_raw(float(spec["rho"]), a, b)
    if kind == "independent":
        return MARGINAL_MOMENT[spec["marginal_x"]](a) * MARGINAL_MOMENT[spec["marginal_y"]](b)
    if kind == "mixture":
        return sum(w * _centred_raw(c, a, b) for c, w in zip(spec["components"], spec["weights"]))
    raise ValueError(f"no closed-form reference for law kind {kind!r}")


class LawReference:
    """Expected rho, sigma^2 and Gram matrix of one law specification."""

    def __init__(self, spec: dict):
        self.spec = spec
        if spec["kind"] == "discrete":
            # exact rational centring: a shift of 1e4 on atoms of spread 1e-3 keeps every digit
            w = [Fraction(v) for v in spec["weights"]]
            self._total = sum(w)
            self._w = w
            self._wf = np.array([float(v / self._total) for v in w])
            self._xs = [Fraction(v) for v in spec["xs"]]
            self._ys = [Fraction(v) for v in spec["ys"]]
            dx, dy = self._centred(self._xs), self._centred(self._ys)
            self._dx, self._dy = dx, dy
            central = lambda a, b: float(self._wf @ (dx ** a * dy ** b))
        else:
            central = lambda a, b: _centred_raw(spec, a, b)
        vx, vy = central(2, 0), central(0, 2)
        self.rho = central(1, 1) / math.sqrt(vx * vy)
        if spec["kind"] == "discrete":
            u = self._dx / math.sqrt(vx)
            v = self._dy / math.sqrt(vy)
            h = u * v - 0.5 * self.rho * (u * u + v * v)
            self.sigma2 = float(self._wf @ (h * h))
        else:
            sx, sy = math.sqrt(vx), math.sqrt(vy)
            m22 = central(2, 2) / (vx * vy)
            m31 = central(3, 1) / (sx ** 3 * sy)
            m13 = central(1, 3) / (sx * sy ** 3)
            m40 = central(4, 0) / vx ** 2
            m04 = central(0, 4) / vy ** 2
            r = self.rho
            self.sigma2 = (m22 - r * (m31 + m13)
                           + 0.25 * r * r * (m40 + 2.0 * m22 + m04))

    def _centred(self, values: list) -> np.ndarray:
        """values minus their exact weighted mean, rounded to float64 only at the end."""
        mean = sum(w * v for w, v in zip(self._w, values)) / self._total
        return np.array([float(v - mean) for v in values])

    def gram(self, exponents=FAMILY_EXPONENTS) -> np.ndarray:
        """Cov(x^a y^b, x^c y^d) over the listed monomials."""
        k = len(exponents)
        out = np.empty((k, k))
        if self.spec["kind"] == "discrete":
            centred = [self._centred([x ** a * y ** b for x, y in zip(self._xs, self._ys)])
                       for a, b in exponents]
            for i in range(k):
                for j in range(k):
                    out[i, j] = float(self._wf @ (centred[i] * centred[j]))
            return out
        for i, (a, b) in enumerate(exponents):
            for j, (c, d) in enumerate(exponents):
                out[i, j] = (_centred_raw(self.spec, a + c, b + d)
                             - _centred_raw(self.spec, a, b) * _centred_raw(self.spec, c, d))
        return out


def gaussian_lemma1_gram(rho: float) -> np.ndarray:
    """Gamma of (pi1, pi2, p, cos(pi1)) under the standard Gaussian with correlation rho.

    E[cos X] = e^{-1/2}, and cos X is even, so it is uncorrelated with X
    and Y.  E[XY cos X] = rho E[X^2 cos X] = rho (1 - 1^2) e^{-1/2} = 0, so
    Cov(XY, cos X) = -E[XY] E[cos X] = -rho e^{-1/2}.
    """
    var_cos = 0.5 * (1.0 + math.exp(-2.0)) - math.exp(-1.0)
    c = -rho * math.exp(-0.5)
    return np.array([[1.0, rho, 0.0, 0.0],
                     [rho, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0 + rho * rho, c],
                     [0.0, 0.0, c, var_cos]])


def rel_error(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def normwise_rel_error(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.abs(got - want).max() / max(float(np.abs(want).max()), 1e-300))


# -- Monte Carlo tolerances ---------------------------------------------------

def ks_tol(reps: int, n: int) -> float:
    """DKW bound at ALPHA plus an O(n^-1/2) allowance for the finite-n skew."""
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * reps)) + 0.3 / math.sqrt(n)


def variance_rtol(reps: int, n: int) -> float:
    """Z_ALPHA standard errors of a sample variance (kurtosis up to 4.5), plus O(1/n) bias."""
    return Z_ALPHA * math.sqrt(3.5 / reps) + 10.0 / n


def mean_atol(sigma2: float, reps: int, n: int) -> float:
    """Z_ALPHA standard errors of the replicate mean, plus the O(n^-1/2) bias of rho_n."""
    return Z_ALPHA * math.sqrt(sigma2 / reps) + 1.0 / math.sqrt(n)


def cov_atol(max_variance: float, reps: int, n: int) -> float:
    """Z_ALPHA standard errors of a sample covariance entry, plus O(1/n) bias."""
    return Z_ALPHA * max_variance * math.sqrt(3.5 / reps) + 10.0 * max_variance / n


# -- estimate on a file -------------------------------------------------------

def estimate_reference(xs: np.ndarray, ys: np.ndarray) -> dict:
    """Float64 recomputation of what ``empcalc estimate`` reports.

    Means are taken with math.fsum and every moment from centred data,
    so the reference keeps its digits under large location shifts.
    """
    n = xs.size
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = xs - mx
    dy = ys - my
    mom = lambda a, b: math.fsum(dx ** a * dy ** b) / n
    vx, vy, cxy = mom(2, 0), mom(0, 2), mom(1, 1)
    m22, m31, m13, m40, m04 = mom(2, 2), mom(3, 1), mom(1, 3), mom(4, 0), mom(0, 4)
    rho = cxy / math.sqrt(vx * vy)
    sx, sy = math.sqrt(vx), math.sqrt(vy)
    sigma2 = ((1.0 + rho * rho / 2.0) * m22 / (vx * vy)
              + rho * rho * (m40 / vx ** 2 + m04 / vy ** 2) / 4.0
              - rho * (m31 / (sx ** 3 * sy) + m13 / (sx * sy ** 3)))
    z = math.sqrt(n) * rho / math.sqrt(m22 / (vx * vy))
    half = 1.96 * math.sqrt(sigma2 / n)
    return {"n": n, "rho_n": rho, "mu_x": mx, "mu_y": my, "var_x": vx, "var_y": vy,
            "cov_xy": cxy, "m22": m22, "m31": m31, "m13": m13, "m40": m40, "m04": m04,
            "sigma_hat2": sigma2, "ci95": [rho - half, rho + half], "z": z,
            "p_value": math.erfc(abs(z) / math.sqrt(2.0))}
