"""Closed-form selection-precision laws.

The central object is the panel precision law

    P(q) = (rho * n**b + q * (1 - rho)) / (1 + (n**b - 1) * rho)

for a panel of n scorers whose pairwise score correlation is rho, with
an empirically fitted efficiency exponent b = q* + 0.8*(1 - rho). The
module also carries the single-scorer approximations and the classical
Spearman-Brown reliability step-up.

Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DomainError

__all__ = [
    "PanelQuery",
    "clip_quantile",
    "efficiency_exponent",
    "effective_rho",
    "panel_precision",
    "single_precision_linear",
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


@dataclasses.dataclass(frozen=True)
class PanelQuery:
    """One evaluation point of the panel law: quantile, correlation, panel size."""

    q: float
    rho: float
    n: int

    def __post_init__(self) -> None:
        _check_q(self.q)
        _check_rho(self.rho)
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")


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


def panel_precision(query: PanelQuery, clipped: bool = True) -> float:
    """Top-q precision of an n-scorer panel under the fitted exponent law.

    Evaluated as q + (1 - q)*effective_rho, which equals the formula in
    the module docstring but does not round past 1.0 (exactly 1.0 at q = 1).
    """
    b = efficiency_exponent(query.q, query.rho, clipped=clipped)
    return query.q + (1.0 - query.q) * effective_rho(query.n, query.rho, b)


def single_precision_linear(q: float, rho: float) -> float:
    """Single-scorer linear law rho + q*(1 - rho); the n=1 panel case."""
    return _check_rho(rho) + _check_q(q) * (1.0 - rho)


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
    for n in range(1, n_max + 1):
        if panel_precision(PanelQuery(q=q, rho=rho, n=n)) >= target:
            return n
    return None
