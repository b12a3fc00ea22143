"""Analysis of real score tables: one row per (task, candidate), one
column per scorer.

The chain mirrors the synthetic pipeline but starts from data: build a
proxy ground truth from optimal scorer weights, measure per-scorer and
panel-subset precision curves against it (one ``precision_curve`` call
for all scorers and one per sub-panel size, so the proxy is ranked once
per call), summarize each curve by the intercept of a constrained linear
fit, and compare panel gains with the Spearman-Brown prediction.
Diagnostics (summary stats, QQ pairs, variance-vs-quality correlation)
live here too.
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .emit import write_json
from .errors import DataValidationError, DomainError
from .laws import spearman_brown
from .precision import precision_curve
from .special import std_normal_quantile, student_t_sf_two_sided
from .streams import correlation_summary, standardize

__all__ = [
    "TaskScores",
    "ScoreTable",
    "TaskReport",
    "SubsetSizeRow",
    "SBComparisonRow",
    "SummaryStats",
    "VarianceQualityRow",
    "VarianceQualityResult",
    "EmpiricalReport",
    "load_scores",
    "save_scores",
    "optimal_weights",
    "constrained_intercept_fit",
    "panel_subset_analysis",
    "spearman_brown_comparison",
    "summary_stats",
    "qq_data",
    "variance_quality",
    "build_report",
]


@dataclasses.dataclass(frozen=True)
class TaskScores:
    """Scores of all candidates for one task."""

    name: str
    candidate_ids: tuple[str, ...]
    attrs: tuple[str, ...]
    matrix: np.ndarray  # m x n_ai


@dataclasses.dataclass(frozen=True)
class ScoreTable:
    ai_names: tuple[str, ...]
    tasks: tuple[TaskScores, ...]


def _validate_table(table: ScoreTable) -> ScoreTable:
    if len(table.ai_names) < 2:
        raise DataValidationError("need at least 2 scorer columns")
    repeated = [n for i, n in enumerate(table.ai_names) if n in table.ai_names[:i]]
    if repeated:
        raise DataValidationError(
            f"scorer {repeated[0]!r}: two scorer columns have this name, so "
            "their output columns and rows would collide"
        )
    if not table.tasks:
        raise DataValidationError("no data rows found")
    seen = set()
    for task in table.tasks:
        if task.name in seen:
            raise DataValidationError(
                f"task {task.name!r}: two tasks have this name, so their "
                "output rows and files would collide"
            )
        seen.add(task.name)
        if "/" in task.name or "\0" in task.name:
            raise DataValidationError(
                f"task {task.name!r}: a task name cannot contain '/' or NUL, "
                "because it becomes part of an output file name"
            )
        mat = task.matrix
        if mat.ndim != 2 or mat.shape[1] != len(table.ai_names):
            raise DataValidationError(
                f"task {task.name!r}: score matrix is not rectangular"
            )
        if len(task.candidate_ids) != mat.shape[0] or len(task.attrs) != mat.shape[0]:
            raise DataValidationError(f"task {task.name!r}: row metadata misaligned")
        if not np.all(np.isfinite(mat)):
            raise DataValidationError(f"task {task.name!r}: non-finite score")
    return table


def load_scores(path: str | Path) -> ScoreTable:
    """Read a ScoreTable from CSV or JSON; a ``.json`` suffix means JSON.

    CSV schema: header ``task,candidate_id,attr,ai_1,...,ai_n`` and one
    row per (task, candidate). The JSON form is the same data nested by
    task; ``save_scores`` writes both. Errors name the offending line.
    """
    path = Path(path)
    try:
        return _load_json(path) if path.suffix.lower() == ".json" else _load_csv(path)
    except OSError as exc:
        raise DataValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataValidationError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except csv.Error as exc:
        raise DataValidationError(f"{path}: unreadable CSV: {exc}") from None


def _load_csv(path: Path) -> ScoreTable:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: file is empty") from None
        if len(header) < 5 or [h.strip() for h in header[:3]] != [
            "task",
            "candidate_id",
            "attr",
        ]:
            raise DataValidationError(
                f"{path}: header must be task,candidate_id,attr,<ai columns> "
                "with at least 2 ai columns"
            )
        ai_names = tuple(h.strip() for h in header[3:])

        rows: dict[str, list[tuple[str, str, list[float]]]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3 + len(ai_names):
                raise DataValidationError(
                    f"{path}:{line_no}: expected {3 + len(ai_names)} fields, "
                    f"got {len(row)}"
                )
            task, cand, attr = (cell.strip() for cell in row[:3])
            try:
                scores = [float(cell) for cell in row[3:]]
            except ValueError:
                raise DataValidationError(
                    f"{path}:{line_no}: non-numeric score"
                ) from None
            rows.setdefault(task, []).append((cand, attr, scores))

    tasks = tuple(_task(name, task_rows) for name, task_rows in rows.items())
    return _validate_table(ScoreTable(ai_names=ai_names, tasks=tasks))


def _load_json(path: Path) -> ScoreTable:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}: invalid JSON: {exc}") from None
    try:
        ai_names = tuple(str(n) for n in doc["ai_names"])
        tasks = tuple(
            _task(
                str(t["name"]),
                [
                    (str(c["id"]), str(c.get("attr", "")), [float(s) for s in c["scores"]])
                    for c in t["candidates"]
                ],
            )
            for t in doc["tasks"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: malformed score table: {exc}") from None
    return _validate_table(ScoreTable(ai_names=ai_names, tasks=tasks))


def _task(name: str, rows: list[tuple[str, str, list[float]]]) -> TaskScores:
    """One task from its (candidate id, attr, scores) rows, in file order."""
    return TaskScores(
        name=name,
        candidate_ids=tuple(cand for cand, _, _ in rows),
        attrs=tuple(attr for _, attr, _ in rows),
        matrix=np.array([scores for _, _, scores in rows], dtype=float),
    )


def save_scores(table: ScoreTable, path: str | Path) -> None:
    """Write a ScoreTable, as JSON for a ``.json`` suffix and CSV otherwise.

    The output reloads to an identical table.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {
            "ai_names": list(table.ai_names),
            "tasks": [
                {
                    "name": task.name,
                    "candidates": [
                        {"id": cand, "attr": attr, "scores": np.asarray(scores, dtype=float)}
                        for cand, attr, scores in zip(
                            task.candidate_ids, task.attrs, task.matrix
                        )
                    ],
                }
                for task in table.tasks
            ],
        }
        write_json(path, doc)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "candidate_id", "attr", *table.ai_names])
        for task in table.tasks:
            for cand, attr, scores in zip(task.candidate_ids, task.attrs, task.matrix):
                # repr of a Python float round-trips exactly
                writer.writerow(
                    [task.name, cand, attr, *(repr(float(s)) for s in scores)]
                )


def optimal_weights(corr: np.ndarray) -> np.ndarray:
    """Leading-eigenvector scorer weights of a correlation matrix.

    Weights are proportional to the eigenvector of the largest eigenvalue
    of ``corr`` (``np.linalg.eigh``), normalized to sum 1; the proxy
    truth is the raw score matrix times them. When every correlation is
    positive the eigenvector is entrywise positive (Perron-Frobenius) and
    the weights are a proper mixture. An eigenvector with entries of both
    signs (or summing to 0, as for two opposite scorers) raises
    DomainError before it is normalized.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1] or corr.shape[0] < 2:
        raise DomainError("need a square correlation matrix of at least 2 columns")
    _, vectors = np.linalg.eigh(corr)  # eigenvalues ascending
    vec = vectors[:, -1]
    if vec.sum() < 0:
        vec = -vec
    col = int(np.argmin(vec))
    if vec[col] < 0:
        raise DomainError(
            f"scorer column {col} correlates negatively with the others: "
            f"its leading-eigenvector entry is {vec[col]:.3g}, so the "
            "weights are not a mixture"
        )
    return vec / vec.sum()


def constrained_intercept_fit(q_grid: np.ndarray, values: np.ndarray) -> float:
    """Intercept at q=0 of the least-squares line through (1, 1).

    Fitting P(q) = 1 + s*(q - 1) to the curve ``values`` over ``q_grid``
    leaves one free parameter; the intercept 1 - s summarizes the whole
    curve the way a correlation would under the linear single-scorer law.
    """
    dq = q_grid - 1.0
    denom = float(dq @ dq)
    if denom == 0.0:
        # grid is the single point q=1, where every curve passes through 1
        return 1.0
    slope = float((values - 1.0) @ dq) / denom
    return 1.0 - slope


@dataclasses.dataclass(frozen=True)
class SubsetSizeRow:
    size: int
    n_subsets: int
    avg_intercept: float
    improvement_pct: float | None  # vs the previous size in the scan


def panel_subset_analysis(
    matrix: np.ndarray, y: np.ndarray, sizes: Sequence[int], q_grid: np.ndarray
) -> list[SubsetSizeRow]:
    """Average constrained intercept of every k-scorer sub-panel.

    For each size, every subset of scorer columns is averaged into a
    panel score, the panels' precision curves against y are measured in
    one ``precision_curve`` call, and their constrained intercepts are
    averaged over subsets.
    """
    matrix = np.asarray(matrix, dtype=float)
    n_ai = matrix.shape[1]
    sizes = [int(k) for k in sizes]
    if any(k < 1 or k > n_ai for k in sizes):
        raise DomainError(f"subset sizes must lie in 1..{n_ai}")

    rows: list[SubsetSizeRow] = []
    prev: float | None = None
    for k in sizes:
        combos = itertools.combinations(range(n_ai), k)
        panels = np.column_stack([matrix[:, combo].mean(axis=1) for combo in combos])
        intercepts = [
            constrained_intercept_fit(q_grid, values)
            for values in precision_curve(panels, y, q_grid)
        ]
        avg = float(np.mean(intercepts))
        pct = None if prev is None else (avg - prev) / prev * 100.0
        rows.append(
            SubsetSizeRow(
                size=k,
                n_subsets=len(intercepts),
                avg_intercept=avg,
                improvement_pct=pct,
            )
        )
        prev = avg
    return rows


@dataclasses.dataclass(frozen=True)
class SBComparisonRow:
    size: int
    observed: float
    predicted: float
    pct_pred_vs_obs: float  # (predicted - observed) / observed
    pct_obs_vs_pred: float  # (observed - predicted) / predicted


def spearman_brown_comparison(
    rho_bar: float, observed: Sequence[tuple[int, float]]
) -> list[SBComparisonRow]:
    """Spearman-Brown predictions against observed per-size intercepts.

    The source tables mix percentage conventions, so both directions are
    carried explicitly.
    """
    rows = []
    for size, obs in observed:
        if size < 2:
            raise DomainError("comparison sizes start at 2")
        pred = spearman_brown(size, rho_bar)
        rows.append(
            SBComparisonRow(
                size=size,
                observed=obs,
                predicted=pred,
                pct_pred_vs_obs=(pred - obs) / obs * 100.0,
                pct_obs_vs_pred=(obs - pred) / pred * 100.0,
            )
        )
    return rows


@dataclasses.dataclass(frozen=True)
class SummaryStats:
    count: int
    mean: float
    sd: float
    min: float
    max: float
    by_attr: dict[str, "SummaryStats"]


def _stats_of(values: np.ndarray) -> dict:
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "sd": float(values.std()),
        "min": float(values.min()),
        "max": float(values.max()),
    }


def summary_stats(table: ScoreTable) -> SummaryStats:
    """Pooled score statistics, overall and per attribute level.

    The sd uses the population divisor. Rows with an empty attribute
    stay out of the per-group breakdown.
    """
    all_scores = np.concatenate([t.matrix.ravel() for t in table.tasks])
    groups: dict[str, list[np.ndarray]] = {}
    for task in table.tasks:
        for attr, row in zip(task.attrs, task.matrix):
            if attr:
                groups.setdefault(attr, []).append(row)
    by_attr = {
        level: SummaryStats(by_attr={}, **_stats_of(np.concatenate(rows)))
        for level, rows in sorted(groups.items())
    }
    return SummaryStats(by_attr=by_attr, **_stats_of(all_scores))


def qq_data(scores: np.ndarray) -> np.ndarray:
    """Normal QQ pairs: column 0 theoretical quantiles, column 1 sample.

    The sample is standardized (population divisor) and sorted;
    theoretical quantiles use the midpoint plotting positions
    (i - 0.5)/m.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    m = scores.size
    if m < 3:
        raise DomainError("need at least 3 values for a QQ plot")
    sample = np.sort(standardize(scores))
    theo = std_normal_quantile((np.arange(1, m + 1) - 0.5) / m)
    return np.column_stack([theo, sample])


@dataclasses.dataclass(frozen=True)
class VarianceQualityRow:
    task: str
    ai: str
    variance: float
    corr_with_truth: float


@dataclasses.dataclass(frozen=True)
class VarianceQualityResult:
    truth_mode: str
    rows: list[VarianceQualityRow]
    r: float | None  # None when the variances or the correlations are all equal
    p_value: float | None


def variance_quality(
    table: ScoreTable, truths: Sequence[np.ndarray], truth_mode: str
) -> VarianceQualityResult:
    """Does spreading scores out go with being right?

    Per (task, scorer): the column's score variance and its correlation
    with that task's truth proxy, ``truths[t]`` for task t. ``truth_mode``
    names the proxy: "weighted" for the optimal-weight proxy,
    "unweighted" for the plain column mean. Across all rows, the global
    Pearson r between variance and correlation, with a two-sided
    Student-t p-value on n - 2 degrees of freedom; both are None when
    there are fewer than 3 rows or either quantity is the same in every
    row.
    """
    if truth_mode not in ("weighted", "unweighted"):
        raise DomainError(f"truth_mode must be weighted or unweighted, got {truth_mode!r}")
    if len(truths) != len(table.tasks):
        raise DomainError("need one truth vector per task")
    rows: list[VarianceQualityRow] = []
    for task, truth in zip(table.tasks, truths):
        # one Pearson pass per task: the truth joins as the last column
        corr, _ = correlation_summary(np.column_stack([task.matrix, truth]))
        for ai, col, c in zip(table.ai_names, task.matrix.T, corr[:-1, -1]):
            rows.append(VarianceQualityRow(task.name, ai, float(col.var()), float(c)))
    n = len(rows)
    if n < 3:
        # two points always lie on a line: r is +-1 with no degrees of freedom
        return VarianceQualityResult(truth_mode, rows, None, None)
    var = np.array([row.variance for row in rows])
    cor = np.array([row.corr_with_truth for row in rows])
    try:
        r = float(correlation_summary(np.column_stack([var, cor]))[0][0, 1])
    except DomainError:
        # a constant column, as when every scorer ranks the candidates 1..m
        # and so has the same variance: the test is undefined
        return VarianceQualityResult(truth_mode, rows, None, None)
    if abs(r) >= 1.0:
        p = 0.0
    else:
        t = abs(r) * np.sqrt((n - 2) / (1.0 - r * r))
        p = student_t_sf_two_sided(t, n - 2)
    return VarianceQualityResult(truth_mode=truth_mode, rows=rows, r=r, p_value=p)


@dataclasses.dataclass(frozen=True)
class TaskReport:
    name: str
    rho_bar: float
    correlation: np.ndarray
    weights: np.ndarray
    q_grid: np.ndarray
    per_ai_values: np.ndarray  # n_ai x len(q_grid)
    average_values: np.ndarray
    intercept: float
    intercept_vs_rho_pct: float  # (intercept - rho_bar) / rho_bar
    subset_rows: list[SubsetSizeRow]
    sb_rows: list[SBComparisonRow]


@dataclasses.dataclass(frozen=True)
class EmpiricalReport:
    ai_names: tuple[str, ...]
    tasks: list[TaskReport]
    summary: SummaryStats
    qq_pairs: np.ndarray
    variance_weighted: VarianceQualityResult
    variance_unweighted: VarianceQualityResult


def build_report(table: ScoreTable, q_points: int) -> EmpiricalReport:
    """Run the full analysis chain over every task in the table.

    Curves are evaluated on a uniform quantile grid from 1/m to 1; the
    constrained intercept is grid-weighted, and a uniform grid keeps it
    comparable with the linear law it summarizes.
    """
    if q_points < 2:
        raise DomainError("the quantile grid needs at least 2 points")
    task_reports: list[TaskReport] = []
    proxies = []
    for task in table.tasks:
        mat = task.matrix
        m, n_ai = mat.shape
        corr, rho_bar = correlation_summary(mat)
        weights = optimal_weights(corr)
        proxy = mat @ weights
        proxies.append(proxy)
        q_grid = np.linspace(1.0 / m, 1.0, q_points)
        per_ai_values = precision_curve(mat, proxy, q_grid)
        average_values = per_ai_values.mean(axis=0)
        intercept = constrained_intercept_fit(q_grid, average_values)

        sizes = [k for k in (2, 3, 4) if k <= n_ai]
        subset_rows = panel_subset_analysis(mat, proxy, sizes, q_grid)
        sb_rows = spearman_brown_comparison(
            rho_bar, [(row.size, row.avg_intercept) for row in subset_rows]
        )
        task_reports.append(
            TaskReport(
                name=task.name,
                rho_bar=rho_bar,
                correlation=corr,
                weights=weights,
                q_grid=q_grid,
                per_ai_values=per_ai_values,
                average_values=average_values,
                intercept=intercept,
                intercept_vs_rho_pct=(intercept - rho_bar) / rho_bar * 100.0,
                subset_rows=subset_rows,
                sb_rows=sb_rows,
            )
        )

    # before summary_stats, whose pooled sd would overflow with a warning
    # where qq_data's standardize rejects the pooled spread
    qq_pairs = qq_data(np.concatenate([t.matrix.ravel() for t in table.tasks]))
    return EmpiricalReport(
        ai_names=table.ai_names,
        tasks=task_reports,
        summary=summary_stats(table),
        qq_pairs=qq_pairs,
        variance_weighted=variance_quality(table, proxies, "weighted"),
        variance_unweighted=variance_quality(
            table, [t.matrix.mean(axis=1) for t in table.tasks], "unweighted"
        ),
    )
