"""Simulators: single-scorer precision curves and panel scaling.

``simulate_distribution_curve`` averages one scorer's precision curve
over trials of a signal distribution. The panel-scaling part builds
synthetic universes of correlated scorers, measures how top-q precision
against the mean of all scorers grows with panel size, fits the
efficiency exponent b per universe, and regresses b on the measured
correlation over a (q, rho) grid. Every stochastic step takes an
explicit stream, and grid cells own independent derived streams, so
results never depend on execution order or thread count.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .laws import panel_precision
from .precision import overlap_counts, stable_rank, top_count, top_hits
from .streams import (
    SeededStream,
    add_calibrated_noise,
    mean_correlation,
    sample_signal,
    standardize,
    superstar_transform,
)

__all__ = [
    "BGridRow",
    "BRegressionRow",
    "ScanPreset",
    "PRESETS",
    "simulate_distribution_curve",
    "generate_universe",
    "panel_precision_scan",
    "fit_exponent_b",
    "b_grid_scan",
    "regress_b_on_rho",
]

_R_CLIP = (0.01, 0.999)
_B_BOUNDS = (0.01, 1.5)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# samples per top_hits call in panel_precision_scan: the B x m running sum
# and top_hits' partition copy, 1 MiB each at m = 2000, stay in a core's L2,
# and the block's B x n orderings are all the scan holds of its draws.
# The width never changes a count: each sample's top set depends on that
# sample's row alone.
_SCAN_BLOCK = 64
# the universe model's fixed shape: spread of the scorers' signal shares,
# correlation of share and scale shocks, range and sd of the score scales,
# and the score mean
_SIG_RHO = 0.05
_RHO_SIG_CORR = 0.78
_SCALE_MIN, _SCALE_MAX = 0.2, 1.2
_SCALE_SD = 0.2
_T_MEAN = 7.0


@dataclasses.dataclass(frozen=True)
class BGridRow:
    q: float
    target_rho: float
    measured_rho: float
    best_b: float


@dataclasses.dataclass(frozen=True)
class BRegressionRow:
    q: float
    slope: float
    intercept: float
    r_squared: float


@dataclasses.dataclass(frozen=True)
class ScanPreset:
    """Shape of a b-grid scan: scorers, candidates, panels per size and the
    largest panel; paper scale vs something a laptop finishes."""

    n_ais: int
    m_candidates: int
    samples_per_size: int
    max_size: int

    @property
    def sizes(self) -> tuple[int, ...]:
        """Panel sizes 1..max_size, capped at the scorer count."""
        return tuple(range(1, min(self.max_size, self.n_ais) + 1))


# desk keeps the paper's scorer count: the truth averages every column, and
# with fewer columns the scanned panels (up to 30 scorers) overlap it enough
# to bias the fitted b upward
PRESETS = {
    "paper": ScanPreset(n_ais=100, m_candidates=2000, samples_per_size=4000, max_size=30),
    "desk": ScanPreset(n_ais=100, m_candidates=1000, samples_per_size=800, max_size=30),
}


def simulate_distribution_curve(
    kind: str,
    t_dof: float,
    m: int,
    rho: float,
    trials: int,
    q_grid: np.ndarray,
    stream: SeededStream,
) -> np.ndarray:
    """Average precision over the grid for one signal distribution.

    Per trial: draw the signal of ``kind`` (``sample_signal``, which
    takes ``t_dof``), add noise calibrated to correlation rho, and measure
    the noisy scores' precision curve against the signal.
    Trial t draws its signal from ``stream.derive(0).derive(t)`` and its
    noise from ``stream.derive(1).derive(t)``. ``children`` hands each
    trial those two streams by re-keying one Philox per root instead of
    building two generators per trial.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    signal_root = stream.derive(0)
    noise_root = stream.derive(1)
    ks = top_count(q_grid, m)
    totals = np.zeros(q_grid.size)
    for signal_g, noise_g in zip(signal_root.children(trials), noise_root.children(trials)):
        nu = sample_signal(kind, m, signal_g, t_dof)
        x = add_calibrated_noise(nu, rho, noise_g)
        totals += overlap_counts(stable_rank(x), stable_rank(nu))[ks] / ks
    return totals / trials


def generate_universe(
    rho: float, n_ais: int, m_candidates: int, stream: SeededStream, boost: float = 0.0
) -> np.ndarray:
    """Draw one universe of target correlation rho: the m x n score matrix.

    Each scorer i gets a latent share r_i of common signal and a score
    scale s_i, drawn jointly from a bivariate normal written in
    conditional form (s_i regressed on the same shock as r_i), so that
    higher-correlation scorers tend to spread their scores more. Column i
    is sqrt(r_i) * Z_common + sqrt(1 - r_i) * Z_i, so two columns with
    shares r correlate at about r before the tail transform. Columns are
    tail-boosted by ``boost`` (0 disables), standardized, then mapped
    onto the s_i scale around 7. The universe's ground truth is the mean
    of all n scorers. A boost so large that the boosted columns' sd
    overflows raises DomainError.
    """
    _check_universe(rho, n_ais, m_candidates, boost)
    g = stream.generator()
    n, m = n_ais, m_candidates

    e0 = g.standard_normal(n)
    e1 = g.standard_normal(n)
    r = np.clip(rho + _SIG_RHO * e0, *_R_CLIP)
    c = _RHO_SIG_CORR
    s_center = 0.5 * (_SCALE_MIN + _SCALE_MAX)
    s_shock = c * e0 + math.sqrt(1.0 - c * c) * e1
    s = np.clip(s_center + _SCALE_SD * s_shock, _SCALE_MIN, _SCALE_MAX)

    z_common = g.standard_normal(m)
    z_own = g.standard_normal((m, n))
    raw = np.sqrt(r)[None, :] * z_common[:, None] + np.sqrt(1.0 - r)[None, :] * z_own
    with np.errstate(over="ignore", invalid="ignore"):
        raw = superstar_transform(raw, boost)
    try:
        return standardize(raw) * s[None, :] + _T_MEAN
    except DomainError:
        # normal columns always spread, so only the boost can take that away
        raise DomainError(f"boost {boost:g} overflows the tail transform") from None


def _check_universe(rho: float, n_ais: int, m_candidates: int, boost: float) -> None:
    """Reject a universe that ``generate_universe`` cannot draw."""
    if not 0.0 < rho < 1.0:
        raise DomainError("target_rho must lie strictly between 0 and 1")
    if n_ais < 2:
        raise DomainError("need at least 2 scorers")
    if m_candidates < 2:
        raise DomainError("need at least 2 candidates")
    if not 0.0 <= boost < math.inf:
        raise DomainError("boost must be finite and non-negative")


def panel_precision_scan(
    scores: np.ndarray,
    q: float,
    stream: SeededStream,
    sizes: Sequence[int],
    samples_per_size: int,
) -> np.ndarray:
    """Average top-q precision of random k-scorer panels, one per size k.

    Each sample draws one uniformly random ordering of the scorers
    (``Generator.permuted``), and its k-panel is the first k of them, a
    uniform k-subset, so one sample's panels are nested and the sizes
    must increase. The candidates are laid out truth first: the truth's
    top set (the truth being the mean of all scorers), then the rest, each
    part in candidate order. Each block of ``_SCAN_BLOCK`` samples draws
    its orderings as it starts (``permuted`` shuffles row after row, so
    they are those of one draw for all samples), keeps one running sum of
    scores per sample, adds the scorers each size brings in pick order,
    and counts with ``top_hits`` how many truth columns each sum's top set
    holds. Sums rank as the panel means do, up to rounding, and are plain
    elementwise additions, so no BLAS call touches them.
    """
    m, n_ais = scores.shape
    sizes, ksel = _scan_plan(n_ais, m, q, sizes, samples_per_size)
    true_mask = stable_rank(scores.mean(axis=1)) <= ksel
    index = np.concatenate([np.flatnonzero(true_mask), np.flatnonzero(~true_mask)])
    rows = np.ascontiguousarray(scores[index].T)
    g = stream.generator()

    hits = np.zeros(len(sizes), dtype=np.int64)
    for s in range(0, samples_per_size, _SCAN_BLOCK):
        width = min(_SCAN_BLOCK, samples_per_size - s)
        picks = g.permuted(np.tile(np.arange(n_ais), (width, 1)), axis=1)
        total = np.zeros((width, m))
        added = 0
        for i, k in enumerate(sizes):
            for j in range(added, k):
                total += rows[picks[:, j]]
            added = k
            hits[i] += top_hits(total, ksel, index)
    return hits / (ksel * samples_per_size)


def _scan_plan(
    n_ais: int, m: int, q: float, sizes: Sequence[int], samples_per_size: int
) -> tuple[tuple[int, ...], int]:
    """The checked panel sizes and the top-set size of a scan."""
    sizes = tuple(int(k) for k in sizes)
    if not sizes or any(k < 1 or k > n_ais for k in sizes):
        raise DomainError(f"panel sizes must be a non-empty selection of 1..{n_ais}")
    # the scan's panels are nested, so each size must add scorers
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"panel sizes {list(sizes)} must be strictly increasing")
    if max(sizes) == 1:
        raise DomainError("fitting b needs a panel size above 1")
    if samples_per_size < 1:
        raise DomainError("samples per panel size must be at least 1")
    ksel = top_count(q, m)
    if ksel == m:
        raise DomainError(f"q {q:g} selects all {m} candidates, so b is not defined")
    return sizes, ksel


def fit_exponent_b(
    sizes: Sequence[int],
    precisions: Sequence[float],
    rho: float,
    q: float,
) -> float:
    """Least-squares exponent b of the panel law against observed precisions.

    Golden-section search on [0.01, 1.5]; the sum of squares is smooth
    and in practice unimodal there, and the bracket keeps the fit from
    wandering when the data carry no panel gain at all. At n = 1 or
    q = 1 the law does not depend on b, so some size must exceed 1 and q
    must lie below 1.
    """
    k = np.asarray(sizes, dtype=float)
    p = np.asarray(precisions, dtype=float)
    if k.shape != p.shape:
        raise DomainError("sizes and precisions must align")
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie strictly between 0 and 1")
    if not (k > 1).any():
        raise DomainError("fitting b needs a panel size above 1")
    if q == 1.0:
        raise DomainError("fitting b needs q below 1")

    def sse(b: float) -> float:
        resid = p - panel_precision(q, rho, k, b)
        return float(resid @ resid)

    lo, hi = _B_BOUNDS
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = sse(x1), sse(x2)
    while hi - lo > 1e-5:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = sse(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = sse(x2)
    return 0.5 * (lo + hi)


def b_grid_scan(
    q_values: Sequence[float],
    rho_targets: Sequence[float],
    scan: ScanPreset,
    base_seed: int,
    boost: float = 0.0,
    threads: int = 1,
) -> list[BGridRow]:
    """Fit b in every (q, rho) cell of the grid, each scanned as ``scan`` says.

    Cell index runs rho-fastest. Each cell derives its own stream from
    (base_seed, cell index), so the table is identical for any thread
    count and any execution order. Every cell's arguments are checked, in
    cell order, before the first universe is drawn.
    """
    q_values = list(q_values)
    rho_targets = list(rho_targets)
    if not q_values or not rho_targets:
        raise DomainError("q_values and rho_targets must be non-empty")
    # a repeated q pools its cells into one regression twice; a repeated
    # rho fits a line through noise
    for name, values in (("q", q_values), ("rho", rho_targets)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise DomainError(f"{name} {value:g} appears more than once in the grid")
    if threads < 1:
        raise DomainError("threads must be at least 1")

    root = SeededStream(base_seed)
    cells = []
    for i_q, q in enumerate(q_values):
        for i_r, rho in enumerate(rho_targets):
            _check_universe(rho, scan.n_ais, scan.m_candidates, boost)
            _scan_plan(scan.n_ais, scan.m_candidates, q, scan.sizes, scan.samples_per_size)
            cells.append((q, rho, root.derive(i_q * len(rho_targets) + i_r)))

    def run(cell):
        q, target, cell_stream = cell
        scores = generate_universe(
            target, scan.n_ais, scan.m_candidates, cell_stream.derive(0), boost
        )
        avg = panel_precision_scan(
            scores, q, cell_stream.derive(1), scan.sizes, scan.samples_per_size
        )
        rho = mean_correlation(scores)
        if not 0.0 < rho < 1.0:
            raise DomainError(f"cell q={q:g}, target rho {target:g}: measured rho {rho!r} "
                              "lies outside (0, 1), so b cannot be fitted")
        return BGridRow(q, target, rho, fit_exponent_b(scan.sizes, avg, rho, q))

    if threads == 1:
        return [run(cell) for cell in cells]
    import concurrent.futures  # imports logging, about 7 ms, so only when threads are used

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, cells))


def regress_b_on_rho(rows: Sequence[BGridRow]) -> BRegressionRow:
    """OLS of fitted b on measured rho for one q's rows."""
    rows = list(rows)
    if len(rows) < 2:
        raise DomainError("need at least 2 rows to regress")
    q_set = {row.q for row in rows}
    if len(q_set) != 1:
        raise DomainError("rows must all share one q")
    x = np.array([row.measured_rho for row in rows])
    y = np.array([row.best_b for row in rows])
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise DomainError("measured rho values are all equal; slope undefined")
    slope = float(xc @ (y - y.mean())) / denom
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DomainError("fitted b values are all equal; R^2 undefined")
    r_squared = 1.0 - ss_res / ss_tot
    return BRegressionRow(
        q=q_set.pop(),
        slope=slope,
        intercept=intercept,
        r_squared=min(max(r_squared, 0.0), 1.0),
    )
