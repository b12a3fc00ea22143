"""Numeric special functions the rest of the package leans on.

Self-contained on purpose: the normal CDF/quantile pair, a bivariate
normal CDF accurate to ~1e-7, and the regularized incomplete beta that
backs the correlation p-value. Keeping these here avoids a heavyweight
runtime dependency for four functions.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "bivariate_normal_cdf",
    "regularized_incomplete_beta",
    "student_t_sf_two_sided",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


_ERFC = np.frompyfunc(math.erfc, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)


def std_normal_cdf(z):
    """Standard normal CDF, scalar or elementwise on arrays.

    Built on erfc, so the lower tail keeps full relative accuracy
    instead of rounding to 0. Every element goes through ``math.erfc``,
    so an array gives bit for bit the values of scalar calls; a scalar
    is the 0-d case and comes back as a float.
    """
    out = 0.5 * np.asarray(_ERFC(np.negative(z, dtype=float) / _SQRT2), dtype=float)
    return float(out) if out.ndim == 0 else out


# Acklam's rational approximation; |rel err| < 1.15e-9 before refinement
_ACK_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACK_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACK_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACK_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e00, 3.754408661907416e00,
)
_ACK_PLOW = 0.02425
_P_MIN = np.finfo(float).tiny


def _horner(coefs, x):
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def std_normal_quantile(p):
    """Inverse standard normal CDF, scalar or elementwise on arrays.

    Acklam's starting value over all three of its regions in one numpy
    pass, then one Halley step. p must lie in [2.2e-308, 1): below the
    smallest normal float exp(x^2 / 2) in the step overflows.
    """
    arr = np.asarray(p, dtype=float)
    ok = (arr >= _P_MIN) & (arr < 1.0)
    if not np.all(ok):
        raise DomainError(f"probability must lie in [{_P_MIN:.2g}, 1), got {arr[~ok][0]:g}")
    w = arr - 0.5
    t = w * w
    x = np.array(_horner(_ACK_A, t) * w / _horner((*_ACK_B, 1.0), t))
    # tails: u = sqrt(-2 log(min(p, 1 - p))), the upper one mirrored; by
    # math.log, since numpy's log is 1 ulp off libm's on some inputs
    lower, upper = arr < _ACK_PLOW, arr > 1.0 - _ACK_PLOW
    tails = lower | upper
    u = np.sqrt(-2.0 * np.array(_LOG(np.where(lower, arr, 1.0 - arr)[tails]), dtype=float))
    x[tails] = np.copysign(_horner(_ACK_C, u) / _horner((*_ACK_D, 1.0), u), w[tails])
    # one Halley step against the erfc-based CDF lands well under 1e-10
    err = std_normal_cdf(x) - arr
    u = err * _SQRT_2PI * np.exp(0.5 * x * x)
    out = x - u / (1.0 + 0.5 * x * u)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
def _gl_nodes(order: int = 96):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def bivariate_normal_cdf(z1: float, z2: float, rho: float) -> float:
    """P(Z1 <= z1, Z2 <= z2) for standard bivariate normal, correlation rho.

    Uses the correlation-integral identity

        Phi2(h, k; rho) = Phi(h)Phi(k)
            + (1/2pi) * int_0^{asin rho} exp(-(h^2 + k^2 - 2hk sin t)
                                             / (2 cos^2 t)) dt

    evaluated by fixed Gauss-Legendre quadrature. The integrand is
    smooth on the whole arc, so 96 nodes hold the error near 1e-15 for
    moderate |rho| and below 1e-7 out to |rho| = 0.999.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    z1 = float(z1)
    z2 = float(z2)
    if math.isnan(z1) or math.isnan(z2):
        raise DomainError("z1 and z2 must not be NaN")
    if z1 == -math.inf or z2 == -math.inf:
        return 0.0
    if z1 == math.inf:
        return std_normal_cdf(z2)
    if z2 == math.inf:
        return std_normal_cdf(z1)
    if rho == 0.0:
        return std_normal_cdf(z1) * std_normal_cdf(z2)
    if rho == 1.0:
        return std_normal_cdf(min(z1, z2))
    if rho == -1.0:
        return max(0.0, std_normal_cdf(z1) + std_normal_cdf(z2) - 1.0)

    upper = math.asin(rho)
    nodes, weights = _gl_nodes()
    theta = 0.5 * upper * (nodes + 1.0)
    cos_t = np.cos(theta)
    expo = -(z1 * z1 + z2 * z2 - 2.0 * z1 * z2 * np.sin(theta)) / (2.0 * cos_t * cos_t)
    integral = 0.5 * upper * float(np.dot(weights, np.exp(expo)))
    value = std_normal_cdf(z1) * std_normal_cdf(z2) + integral / (2.0 * math.pi)
    # quadrature round-off can poke a hair outside [0, 1]
    return min(max(value, 0.0), 1.0)


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's continued fraction for the incomplete beta
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericalError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # continued fraction converges fast on the side below the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, dof: float) -> float:
    """Two-sided tail probability P(|T| >= t) for Student-t with dof > 0.

    Identity: P(|T| >= t) = I_{dof/(dof + t^2)}(dof/2, 1/2), which keeps
    full accuracy in the far tail where 1 - CDF would cancel.
    """
    if dof <= 0:
        raise DomainError("dof must be positive")
    t = float(t)
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(0.5 * dof, 0.5, x)
