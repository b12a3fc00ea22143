"""Top-q overlap precision: how well a scorer's top slice matches the truth.

Given observed scores x and true quality v over the same m candidates,
``precision_at_q`` selects the top q-fraction by each and reports the
overlap fraction. ``generalized_precision`` decouples the two fractions
so a q-slice of x can be scored against an h-slice of v.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "PrecisionCurve",
    "top_count",
    "top_set",
    "precision_at_q",
    "generalized_precision",
    "log_q_grid",
    "precision_curve",
]


def top_count(q: float, m: int) -> int:
    """Selection size for fraction q of m: max(round(q*m), 1).

    Rounds half away from zero, so q*m = 2.5 selects 3. Python's
    round() would give 2 there (banker's rounding), which silently
    changes every curve at half-integer grid points.
    """
    if not 0.0 < q <= 1.0:
        raise DomainError("q must lie in (0, 1]")
    if m < 1:
        raise DomainError("m must be at least 1")
    return max(int(math.floor(q * m + 0.5)), 1)


def top_set(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, sorted ascending.

    Boundary ties break toward the lower candidate index. A stable sort
    on the negated scores gives exactly that ordering.
    """
    scores = np.asarray(scores, dtype=float)
    m = scores.size
    if not 1 <= k <= m:
        raise DomainError(f"k must lie in [1, {m}], got {k}")
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def precision_at_q(x: np.ndarray, v: np.ndarray, q: float) -> float:
    """Overlap fraction between the top q-slices of x and v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 1:
        raise DomainError("x and v must be 1-d vectors of equal length")
    k = top_count(q, x.size)
    hits = np.intersect1d(top_set(x, k), top_set(v, k), assume_unique=True).size
    return hits / k


def generalized_precision(
    h: float, q: float, x: np.ndarray, v: np.ndarray
) -> float:
    """Fraction of the true top-h slice captured by the top-q slice of x.

    Equals precision_at_q when h == q; bounded above by min(1, k_q/k_h).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 1:
        raise DomainError("x and v must be 1-d vectors of equal length")
    m = x.size
    k_h = top_count(h, m)
    k_q = top_count(q, m)
    hits = np.intersect1d(top_set(v, k_h), top_set(x, k_q), assume_unique=True).size
    return hits / k_h


def log_q_grid(m: int, points: int = 50) -> np.ndarray:
    """Geometric quantile grid from 1/m to 1 inclusive."""
    if m < 2:
        raise DomainError("m must be at least 2")
    if points < 2:
        raise DomainError("need at least 2 grid points")
    grid = np.logspace(math.log10(1.0 / m), 0.0, points)
    # pin the endpoints; logspace can be off in the last ulp
    grid[0] = 1.0 / m
    grid[-1] = 1.0
    return grid


@dataclasses.dataclass(frozen=True)
class PrecisionCurve:
    """Precision evaluated over an ascending quantile grid."""

    q_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if q.shape != vals.shape or q.ndim != 1:
            raise DomainError("q_grid and values must be 1-d and equal length")
        if q.size == 0:
            raise DomainError("q_grid must not be empty")
        if not (np.all(np.diff(q) > 0) and 0.0 < q[0] and q[-1] <= 1.0):
            raise DomainError("q_grid must be strictly increasing within (0, 1]")
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "values", vals)


def precision_curve(x: np.ndarray, v: np.ndarray, q_grid: np.ndarray) -> PrecisionCurve:
    """Evaluate precision_at_q pointwise over a quantile grid."""
    vals = np.array([precision_at_q(x, v, q) for q in np.asarray(q_grid, dtype=float)])
    return PrecisionCurve(np.asarray(q_grid, dtype=float), vals)
