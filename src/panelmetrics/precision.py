"""Top-q overlap precision: how well a scorer's top slice matches the truth.

Given observed scores x and true quality v over the same m candidates,
``precision_at_q`` selects the top q-fraction by each and reports the
overlap fraction. ``generalized_precision`` decouples the two fractions
so a q-slice of x can be scored against an h-slice of v.

Every overlap is counted from ranks: ``stable_rank`` argsorts a vector
once and puts tied runs back in index order, and the top-k slice is the
set of ranks <= k. ``overlap_counts`` turns two rankings into the overlap
size for every k at once. ``top_hits`` counts the same top-k sets for
every column of a matrix without sorting: it partitions each column at
its k-th largest value instead.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "PrecisionCurve",
    "top_count",
    "stable_rank",
    "overlap_counts",
    "top_hits",
    "precision_at_q",
    "generalized_precision",
    "log_q_grid",
    "precision_curve",
]


def top_count(q: float | np.ndarray, m: int) -> int | np.ndarray:
    """Selection size for fraction q of m: max(round(q*m), 1).

    Rounds half away from zero, so q*m = 2.5 selects 3. Python's
    round() would give 2 there (banker's rounding), which silently
    changes every curve at half-integer grid points. An array of
    fractions, such as a quantile grid, gives an array of sizes.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q <= 1.0)):
        raise DomainError("q must lie in (0, 1]")
    if m < 1:
        raise DomainError("m must be at least 1")
    k = np.maximum(np.floor(q * m + 0.5).astype(np.int64), 1)
    return int(k) if k.ndim == 0 else k


def stable_rank(scores: np.ndarray) -> np.ndarray:
    """1-based rank of each score, highest first.

    The ranks of a stable sort on the negated scores: ties go to the lower
    index, NaNs rank last and -0.0 ties with 0.0. numpy's default argsort
    leaves ties unordered, so when there are any, one integer sort of
    ``run * m + index`` puts each run of equal values (or NaNs) back in
    index order. The top-k slice is ``stable_rank(s) <= k``.
    """
    neg = -np.asarray(scores, dtype=float)
    order = np.argsort(neg)
    s = neg[order]
    tied = (s[1:] == s[:-1]) | np.isnan(s[:-1])
    if tied.any():
        run = np.concatenate(([0], np.cumsum(~tied))) * neg.size
        order = np.sort(run + order) - run
    rank = np.empty(neg.size, dtype=np.int64)
    rank[order] = np.arange(1, neg.size + 1)
    return rank


def overlap_counts(rank_x: np.ndarray, rank_v: np.ndarray) -> np.ndarray:
    """``hits[k]``: how many candidates both top-k slices share, k = 0..m.

    A candidate is in both slices exactly when the larger of its two
    ranks is at most k, so counting those maxima and summing up gives
    every k from one pass.
    """
    worst = np.maximum(rank_x, rank_v)
    return np.cumsum(np.bincount(worst, minlength=worst.size + 1))


def top_hits(estimates: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """How many ``truth`` rows each column's top-k rows hold, for an m x B block.

    A column's top-k rows are those with ``stable_rank(column) <= k``: the
    k largest values, ties going to the lower row index. ``np.partition``
    finds each column's k-th largest value t. Every row above t is in the
    set, and so is every row equal to t, unless a tie with t is left below
    the partition point; only such a column picks its tied rows by index.
    """
    est = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    m = est.shape[0]
    if est.ndim != 2 or truth.shape != (m,):
        raise DomainError("need an m x B matrix and a length-m truth mask")
    if not 1 <= k <= m:
        raise DomainError(f"k must lie in 1..{m}")
    part = np.partition(est, m - k, axis=0)
    t = part[m - k]
    est_true = est[truth]
    hits = np.count_nonzero(est_true >= t, axis=0)
    if k < m:
        for j in np.flatnonzero(part[: m - k].max(axis=0) == t):
            col = est[:, j]
            slots = k - np.count_nonzero(col > t[j])
            tied = np.flatnonzero(col == t[j])[:slots]
            hits[j] = np.count_nonzero(est_true[:, j] > t[j]) + np.count_nonzero(truth[tied])
    return hits


def _ranks(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 1:
        raise DomainError("x and v must be 1-d vectors of equal length")
    return stable_rank(x), stable_rank(v)


def precision_at_q(x: np.ndarray, v: np.ndarray, q: float) -> float:
    """Overlap fraction between the top q-slices of x and v."""
    rank_x, rank_v = _ranks(x, v)
    k = top_count(q, rank_x.size)
    return np.count_nonzero(np.maximum(rank_x, rank_v) <= k) / k


def generalized_precision(
    h: float, q: float, x: np.ndarray, v: np.ndarray
) -> float:
    """Fraction of the true top-h slice captured by the top-q slice of x.

    Equals precision_at_q when h == q; bounded above by min(1, k_q/k_h).
    """
    rank_x, rank_v = _ranks(x, v)
    k_h = top_count(h, rank_x.size)
    k_q = top_count(q, rank_x.size)
    return np.count_nonzero((rank_v <= k_h) & (rank_x <= k_q)) / k_h


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
    """Precision at every grid point, from one ranking of each vector."""
    q_grid = np.asarray(q_grid, dtype=float)
    rank_x, rank_v = _ranks(x, v)
    ks = top_count(q_grid, rank_x.size)
    return PrecisionCurve(q_grid, overlap_counts(rank_x, rank_v)[ks] / ks)
