"""Closed-form selection-precision laws.

The central object is the panel precision law

    P(q) = q + (1 - q) * rho * n**b / (1 + (n**b - 1) * rho)

for a panel of n scorers whose pairwise score correlation is rho.
``panel_precision`` evaluates it at any exponent b; the fitted one,
b = q* + 0.8*(1 - rho) with q clamped into [0.07, 0.22], comes from
``efficiency_exponent``. At n = 1 the law is the linear single-scorer
law rho + q*(1 - rho) whatever b is. The module also carries
``p20_single``, the one refined single-scorer approximation, and the
classical Spearman-Brown reliability step-up.

Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "clip_quantile",
    "efficiency_exponent",
    "effective_rho",
    "panel_precision",
    "p20_single",
    "spearman_brown",
    "required_panel_size",
]

CLIP_LO = 0.07
CLIP_HI = 0.22


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    return q


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    return rho


def clip_quantile(q: float) -> float:
    """Clamp q into the [0.07, 0.22] window where the exponent fit holds."""
    return min(max(_check_q(q), CLIP_LO), CLIP_HI)


def efficiency_exponent(q: float, rho: float, clipped: bool = True) -> float:
    """Panel efficiency exponent b = q* + 0.8*(1 - rho).

    With clipped=True (default) q* is the clamped quantile; clipped=False
    uses q as-is, which extrapolates outside the fitted window.
    """
    q = _check_q(q)
    rho = _check_rho(rho)
    q_star = clip_quantile(q) if clipped else q
    return q_star + 0.8 * (1.0 - rho)


def effective_rho(n: int | np.ndarray, rho: float, b: float) -> float | np.ndarray:
    """Panel-of-n effective correlation rho*n**b / (1 + (n**b - 1)*rho).

    n is one size or an array of sizes. An int takes Python's float pow
    and an array takes numpy's; the two can differ in the last bit, so
    the power stays n**b on whatever is passed.
    """
    rho = _check_rho(rho)
    if np.any(np.asarray(n) < 1):
        raise DomainError("n must be at least 1")
    if not b > 0:
        raise DomainError("b must be positive")
    nb = n**b
    return rho * nb / (1.0 + (nb - 1.0) * rho)


def panel_precision(
    q: float, rho: float, n: int | np.ndarray, b: float
) -> float | np.ndarray:
    """Top-q precision of an n-scorer panel under the law at exponent b.

    Evaluated as q + (1 - q)*effective_rho, which does not round past 1.0
    (exactly 1.0 at q = 1) the way the single fraction
    (rho*n**b + q*(1 - rho)) / (1 + (n**b - 1)*rho) can. n is one size or
    an array of sizes, as for ``effective_rho``.
    """
    q = _check_q(q)
    return q + (1.0 - q) * effective_rho(n, rho, b)


def p20_single(rho: float) -> float:
    """Refined single-scorer precision at the top-20% cut.

    0.2 + 0.5*rho + 0.3*rho**10; exact at both endpoints, and the rho**10
    term supplies the late upturn the linear law misses above rho ~ 0.9.
    """
    rho = _check_rho(rho)
    return 0.2 + 0.5 * rho + 0.3 * rho**10


def spearman_brown(n: int, rho_bar: float) -> float:
    """Reliability of the mean of n parallel scorers: n*rho/(1+(n-1)*rho).

    This is the panel law's effective correlation at b = 1.
    """
    return effective_rho(n, rho_bar, 1.0)


def required_panel_size(
    q: float, rho: float, target: float, n_max: int
) -> int | None:
    """Smallest panel size reaching the target precision, or None.

    Linear scan; the law is increasing in n so the first hit is minimal.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("target must lie strictly between 0 and 1")
    if n_max < 1:
        raise DomainError("the largest panel size must be at least 1")
    b = efficiency_exponent(q, rho)
    for n in range(1, n_max + 1):
        if panel_precision(q, rho, n, b) >= target:
            return n
    return None
