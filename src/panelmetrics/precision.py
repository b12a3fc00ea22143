"""Top-q overlap precision: how well a scorer's top slice matches the truth.

Given observed scores x and true quality v over the same m candidates,
``precision_at_q`` selects the top q-fraction by each and reports the
overlap fraction. ``generalized_precision`` decouples the two fractions
so a q-slice of x can be scored against an h-slice of v.
``precision_curve`` gives precision over a grid of q, for one scorer or
for every column of a score matrix against one truth, as a plain array.

Every top-k set is decided by ``stable_rank``, the only code that breaks
ties: it argsorts a vector once and puts tied runs back in index order,
and the top-k slice is the set of ranks <= k. ``overlap_counts`` turns
two rankings into the overlap size for every k at once. ``top_hits``
counts the same top-k sets for every column of a matrix, partitioning
each column at its k-th largest value and ranking only a column whose
tie straddles that cut; it rejects NaN.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
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

    A column's top-k rows are those with ``stable_rank(column) <= k``, so
    ties are ``stable_rank``'s. ``np.partition`` finds each column's k-th
    largest value t, and every row at or above t is in the set unless a
    tie with t is left below the partition point; only such a column is
    ranked. A column holding NaN raises ``DomainError``: the partition
    sorts NaN last, so any NaN lands in the rows from m - k on.
    """
    est = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    m = est.shape[0]
    if est.ndim != 2 or truth.shape != (m,):
        raise DomainError("need an m x B matrix and a length-m truth mask")
    if not 1 <= k <= m:
        raise DomainError(f"k must lie in 1..{m}")
    part = np.partition(est, m - k, axis=0)
    if np.isnan(part[m - k :]).any():
        raise DomainError("estimates must not hold NaN")
    t = part[m - k]
    hits = np.count_nonzero(est[truth] >= t, axis=0)
    if k < m:
        for j in np.flatnonzero(part[: m - k].max(axis=0) == t):
            hits[j] = np.count_nonzero(truth & (stable_rank(est[:, j]) <= k))
    return hits


def precision_at_q(x: np.ndarray, v: np.ndarray, q: float) -> float:
    """Overlap fraction between the top q-slices of x and v."""
    return generalized_precision(q, q, x, v)


def generalized_precision(
    h: float, q: float, x: np.ndarray, v: np.ndarray
) -> float:
    """Fraction of the true top-h slice captured by the top-q slice of x.

    ``precision_at_q`` is the case h == q; bounded above by min(1, k_q/k_h).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 1:
        raise DomainError("x and v must be 1-d vectors of equal length")
    k_h = top_count(h, x.size)
    k_q = top_count(q, x.size)
    return np.count_nonzero((stable_rank(v) <= k_h) & (stable_rank(x) <= k_q)) / k_h


def log_q_grid(m: int, points: int) -> np.ndarray:
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


def precision_curve(x: np.ndarray, v: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """Precision against v at every grid point, for x or for each column of x.

    x is an m-vector, which gives one value per grid point, or an m x c
    matrix, which gives a c x len(q_grid) array: one row per column. v is
    ranked and the grid's top-k sizes are found once per call, so a
    matrix costs one ``stable_rank`` per column plus one.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    if v.ndim != 1 or x.ndim not in (1, 2) or x.shape[0] != v.size:
        raise DomainError("v must be a 1-d vector and x a vector or matrix of as many rows")
    if q_grid.ndim != 1 or q_grid.size == 0:
        raise DomainError("q_grid must be a non-empty 1-d grid")
    ks = top_count(q_grid, v.size)
    rank_v = stable_rank(v)
    hits = [overlap_counts(stable_rank(col), rank_v)[ks] for col in np.atleast_2d(x.T)]
    return np.reshape(hits, x.shape[1:] + ks.shape) / ks
