"""Correctness checks of each workload's outputs.

Every check recomputes a number apart from the program (numpy, scipy or
plain Python) or tests a property the method must have; none compares
with a stored copy of earlier output. Each ``check_*`` function returns
a list of problems, empty when the outputs pass.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

import workloads

# per-cell band on |b - (q + 0.8 (1 - rho))|. Criterion 5 uses 0.08, but
# one cell's b varies from seed to seed by an sd of 0.021 (desk, rho 0.4)
# to 0.031 (desk, rho 0.7), and the 10-size paper cell sits 0.023 low
# (seeds 0-23 desk, 0-15 paper): 0.08 would fail about one desk seed in
# eighty on correct code. 0.15 is five of those sds.
B_BAND = 0.15
# fit_exponent_b searches [0.01, 1.5] down to a width of 1e-5; a b this
# close to either end means the optimum lay outside the bracket
B_BRACKET = (0.01, 1.5)
B_EDGE = 1e-3
# measured rho of a universe against its target; the seed-to-seed sd is
# about 0.01 at desk and paper scale
SCALING_RHO_TOL = 0.05
# rho_bar of an analyze task against its population correlation; the
# seed-to-seed sd is about 0.016 for 600 candidates and 8 scorers
ANALYZE_RHO_TOL = 0.1
# the normal curve at the grid point nearest q = 0.2 against p20_single
P20_TOL = 0.03

CURVE_KINDS = ("normal", "lognormal", "pareto", "student_t")
CURVES_M, CURVES_RHO, CURVES_TRIALS, CURVES_POINTS = 2000, 0.8, 500, 50

# the output files the README's table lists for each command, plus the
# run.json every --out directory gets
SCALING_FILES = ("b_grid.csv", "regression.csv", "b_grid.json", "run.json")
CURVES_FILES = ("curves.csv", "anchors.csv", "curves.json", "curves.svg", "run.json")
ANALYZE_FILES = (
    "report.json", "tasks.csv", "subsets.csv", "spearman_brown.csv",
    "curves.csv", "qq.csv", "variance_quality.csv", "run.json",
)


def f6(value) -> str:
    """A CSV cell as the README specifies it: 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def csv_line(values) -> str:
    return ",".join(f6(v) for v in values)


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _missing(out: Path, names) -> list[str]:
    return [f"missing output file {name}" for name in names if not (out / name).is_file()]


def _close(label: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.max(np.abs(got - want), initial=0.0)
    if not err <= tol:
        return [f"{label}: off by {err:.3g} (tolerance {tol:g})"]
    return []


# --- scaling ---------------------------------------------------------------

def check_scaling(out: Path, stdout: str, preset: str, rhos, q: float = workloads.SCALING_Q):
    problems = _missing(out, SCALING_FILES)
    if problems:
        return problems
    doc = json.loads((out / "b_grid.json").read_text())
    rows = doc["rows"]
    if doc["preset"] != preset:
        problems.append(f"b_grid.json preset {doc['preset']!r} != {preset!r}")
    if [(r["q"], r["target_rho"]) for r in rows] != [(q, rho) for rho in rhos]:
        problems.append("b_grid.json cells differ from the requested grid")
        return problems
    lo, hi = B_BRACKET
    for r in rows:
        cell = f"cell rho={r['target_rho']}"
        law = r["q"] + 0.8 * (1.0 - r["measured_rho"])
        if not abs(r["best_b"] - law) <= B_BAND:
            problems.append(f"{cell}: best_b {r['best_b']:.4f} is not within {B_BAND} of {law:.4f}")
        if not lo + B_EDGE < r["best_b"] < hi - B_EDGE:
            problems.append(f"{cell}: best_b {r['best_b']:.6f} sits at the search bracket")
        if not abs(r["measured_rho"] - r["target_rho"]) <= SCALING_RHO_TOL:
            problems.append(f"{cell}: measured_rho {r['measured_rho']:.4f} is far from its target")

    table = ["q,target_rho,measured_rho,best_b"] + [
        csv_line((r["q"], r["target_rho"], r["measured_rho"], r["best_b"])) for r in rows
    ]
    if _lines(out / "b_grid.csv") != table:
        problems.append("b_grid.csv disagrees with b_grid.json")
    printed = stdout.splitlines()
    if printed[: len(table)] != table:
        problems.append("the stdout table disagrees with b_grid.csv")

    regression = ["q,slope,intercept,r_squared"]
    if len(rows) >= 2:
        x = np.array([r["measured_rho"] for r in rows])
        y = np.array([r["best_b"] for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (intercept + slope * x)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0.0 else min(max(1.0 - float(resid @ resid) / ss_tot, 0.0), 1.0)
        regs = doc["regressions"]
        if len(regs) != 1:
            problems.append(f"expected one regression, found {len(regs)}")
        else:
            reg = regs[0]
            problems += _close(
                "regression", [reg["slope"], reg["intercept"], reg["r_squared"]],
                [slope, intercept, r2], 1e-9,
            )
            regression.append(csv_line((q, reg["slope"], reg["intercept"], reg["r_squared"])))
            line = (f"q={f6(q)}: b ~ {f6(reg['intercept'])} + {f6(reg['slope'])}*rho "
                    f"(R^2={f6(reg['r_squared'])})")
            if line not in printed:
                problems.append("the regression line is missing from stdout")
    elif doc["regressions"] or len(doc["regression_errors"]) != 1:
        problems.append("a single cell must skip the regression and say so")
    if _lines(out / "regression.csv") != regression:
        problems.append("regression.csv disagrees with b_grid.json")
    return problems


# --- curves ----------------------------------------------------------------

def normal_limit(m: int, rho: float) -> float:
    """P(X > z, V > z) / q for q = 1/m, by quadrature over X."""
    q = 1.0 / m
    z = float(special.ndtri(1.0 - q))
    s = math.sqrt(1.0 - rho * rho)

    def integrand(x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * special.ndtr((rho * x - z) / s)

    value, _ = integrate.quad(integrand, z, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value / q


def check_curves(out: Path, stdout: str, m: int = CURVES_M, rho: float = CURVES_RHO):
    problems = _missing(out, CURVES_FILES)
    if problems:
        return problems
    doc = json.loads((out / "curves.json").read_text())
    grid = np.array(doc["q_grid"])
    want_grid = np.logspace(math.log10(1.0 / m), 0.0, CURVES_POINTS)
    want_grid[0], want_grid[-1] = 1.0 / m, 1.0
    problems += _close("q_grid", grid, want_grid, 1e-12)
    if sorted(doc["curves"]) != sorted(CURVE_KINDS):
        return problems + [f"curves.json has curves {sorted(doc['curves'])}"]
    curves = {kind: np.array(doc["curves"][kind]) for kind in CURVE_KINDS}
    for kind, values in curves.items():
        if values.shape != grid.shape:
            problems.append(f"{kind}: {values.size} values for {grid.size} grid points")
            return problems
        if not np.all((values >= 0.0) & (values <= 1.0)):
            problems.append(f"{kind}: a precision lies outside [0, 1]")
        if values[-1] != 1.0:
            problems.append(f"{kind}: precision at q = 1 is {values[-1]!r}, not 1")

    near = int(np.argmin(np.abs(grid - 0.2)))
    p02 = float(np.mean([curves[kind][near] for kind in CURVE_KINDS]))
    anchors = doc["anchors"]
    problems += _close("p_avg_02", anchors["p_avg_02"], p02, 1e-12)
    problems += _close("q_anchor", anchors["q_anchor"], 1.0 / m, 0.0)
    problems += _close(
        "heavy_tail_estimate", anchors["heavy_tail_estimate"],
        1.0 - (1.0 - p02) / math.log10(2.0 * m), 1e-12,
    )
    problems += _close("normal_limit", anchors["normal_limit"], normal_limit(m, rho), 1e-7)
    if not 0.0 <= anchors["t_limit"] <= 1.0:
        problems.append("t_limit lies outside [0, 1]")
    problems += _close("reference", doc["reference"], 1.0 + (1.0 - p02) / 0.8 * (grid - 1.0), 1e-12)
    p20 = 0.2 + 0.5 * rho + 0.3 * rho**10
    if not abs(curves["normal"][near] - p20) <= P20_TOL:
        problems.append(
            f"normal curve at q={grid[near]:.4f} is {curves['normal'][near]:.4f}, "
            f"not within {P20_TOL} of {p20:.4f}"
        )

    table = ["q,p_normal,p_lognormal,p_pareto,p_student_t,reference"] + [
        csv_line((float(grid[i]), *(float(curves[k][i]) for k in CURVE_KINDS), doc["reference"][i]))
        for i in range(grid.size)
    ]
    if _lines(out / "curves.csv") != table:
        problems.append("curves.csv disagrees with curves.json")
    keys = ("q_anchor", "normal_limit", "t_limit", "heavy_tail_estimate", "p_avg_02")
    if _lines(out / "anchors.csv") != [",".join(keys), csv_line(anchors[k] for k in keys)]:
        problems.append("anchors.csv disagrees with curves.json")
    line = (
        f"m={m} rho={f6(rho)} trials={CURVES_TRIALS}: avg P(0.2)={f6(p02)} "
        f"anchors: normal={f6(anchors['normal_limit'])} "
        f"t={f6(anchors['t_limit'])} heavy={f6(anchors['heavy_tail_estimate'])}"
    )
    if stdout.splitlines() != [line]:
        problems.append("stdout disagrees with curves.json")
    return problems


# --- analyze ---------------------------------------------------------------

def read_score_table(path: Path):
    """[(task, attrs, matrix)] from the analyze input CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        tasks: dict[str, tuple[list, list]] = {}
        for row in reader:
            attrs, values = tasks.setdefault(row[0], ([], []))
            attrs.append(row[2])
            values.append([float(v) for v in row[3:]])
    return [(name, a, np.array(v)) for name, (a, v) in tasks.items()]


def top_overlap(x: np.ndarray, v: np.ndarray, q_grid) -> np.ndarray:
    """Precision at each q, top sets broken toward the lower index."""
    m = x.size
    index = np.arange(m)
    rank = np.empty((2, m), dtype=np.int64)
    rank[0, np.lexsort((index, -x))] = index
    rank[1, np.lexsort((index, -v))] = index
    worst = rank.max(axis=0)
    ks = [max(math.floor(q * m + 0.5), 1) for q in q_grid]
    return np.array([np.count_nonzero(worst < k) / k for k in ks])


def leading_weights(matrix: np.ndarray) -> np.ndarray:
    _, vectors = np.linalg.eigh(np.corrcoef(matrix, rowvar=False))
    lead = vectors[:, -1]
    return lead / lead.sum()


def mean_offdiag(matrix: np.ndarray) -> float:
    corr = np.corrcoef(matrix, rowvar=False)
    n = corr.shape[0]
    return float((corr[~np.eye(n, dtype=bool)]).mean())


def check_analyze(out: Path, stdout: str, scores: Path, task_rhos=workloads.ANALYZE_TASK_RHOS):
    tasks = read_score_table(scores)
    problems = _missing(out, ANALYZE_FILES + tuple(f"curves_{t}.svg" for t, _, _ in tasks))
    if problems:
        return problems
    report = json.loads((out / "report.json").read_text())
    if [t["name"] for t in report["tasks"]] != [t for t, _, _ in tasks]:
        return problems + ["report.json tasks differ from the input table"]
    printed = stdout.splitlines()

    truths = []
    for (name, _, mat), rep, c in zip(tasks, report["tasks"], task_rhos):
        m = mat.shape[0]
        rho_bar = mean_offdiag(mat)
        problems += _close(f"{name} rho_bar", rep["rho_bar"], rho_bar, 1e-9)
        if not abs(rho_bar - c) <= ANALYZE_RHO_TOL:
            problems.append(f"{name}: rho_bar {rho_bar:.4f} is far from the population {c}")
        problems += _close(f"{name} weights", rep["weights"], leading_weights(mat), 1e-6)
        weights = np.array(rep["weights"])
        proxy = mat @ weights
        truths.append((proxy, mat.mean(axis=1)))

        q_grid = np.linspace(1.0 / m, 1.0, 50)
        problems += _close(f"{name} q_grid", rep["q_grid"], q_grid, 1e-12)
        per_ai = np.array([top_overlap(mat[:, j], proxy, q_grid) for j in range(mat.shape[1])])
        problems += _close(f"{name} per-scorer curves", rep["per_ai_values"], per_ai, 1e-12)
        problems += _close(f"{name} average curve", rep["average_values"], per_ai.mean(axis=0), 1e-12)

        for row in rep["sb_rows"]:
            n = row["size"]
            predicted = n * rep["rho_bar"] / (1.0 + (n - 1) * rep["rho_bar"])
            problems += _close(f"{name} Spearman-Brown n={n}", row["predicted"], predicted, 1e-12)
            line = (f"  panel of {n}: observed {f6(row['observed'])} "
                    f"vs Spearman-Brown {f6(row['predicted'])} ({row['pct_pred_vs_obs']:+.1f}%)")
            if line not in printed:
                problems.append(f"{name}: stdout lacks the panel-of-{n} line")
        if [r["size"] for r in rep["sb_rows"]] != [2, 3, 4]:
            problems.append(f"{name}: Spearman-Brown rows are not sizes 2, 3, 4")
        if not any(p.startswith(f"task {name}: rho_bar={f6(rep['rho_bar'])} ") for p in printed):
            problems.append(f"{name}: stdout lacks the task line")

    pooled = np.concatenate([mat.ravel() for _, _, mat in tasks])
    qq = np.array(report["qq_pairs"])
    size = pooled.size
    problems += _close("QQ theoretical", qq[:, 0], stats.norm.ppf((np.arange(1, size + 1) - 0.5) / size), 1e-9)
    problems += _close("QQ sample", qq[:, 1], np.sort((pooled - pooled.mean()) / pooled.std()), 1e-12)
    summary = report["summary"]
    problems += _close(
        "summary", [summary["mean"], summary["sd"], summary["min"], summary["max"], summary["count"]],
        [pooled.mean(), pooled.std(), pooled.min(), pooled.max(), size], 1e-9,
    )

    for mode, pick in (("weighted", 0), ("unweighted", 1)):
        vq = report[f"variance_{mode}"]
        var, cor = [], []
        for (_, _, mat), truth in zip(tasks, truths):
            for j in range(mat.shape[1]):
                var.append(mat[:, j].var())
                cor.append(np.corrcoef(mat[:, j], truth[pick])[0, 1])
        problems += _close(f"{mode} variances", [r["variance"] for r in vq["rows"]], var, 1e-9)
        problems += _close(f"{mode} correlations", [r["corr_with_truth"] for r in vq["rows"]], cor, 1e-9)
        r, p = stats.pearsonr(var, cor)
        problems += _close(f"{mode} r", vq["r"], r, 1e-9)
        if not abs(vq["p_value"] - p) <= 1e-9 + 1e-6 * p:
            problems.append(f"{mode} p-value {vq['p_value']!r} != {p!r}")
        line = f"variance-quality ({mode}): r={f6(vq['r'])} p={f6(vq['p_value'])}"
        if line not in printed:
            problems.append(f"stdout lacks the {mode} variance-quality line")

    tasks_csv = ["task,rho_bar,intercept,intercept_vs_rho_pct"] + [
        csv_line((t["name"], t["rho_bar"], t["intercept"], t["intercept_vs_rho_pct"]))
        for t in report["tasks"]
    ]
    if _lines(out / "tasks.csv") != tasks_csv:
        problems.append("tasks.csv disagrees with report.json")
    if len(_lines(out / "qq.csv")) != size + 1:
        problems.append("qq.csv does not hold one row per pooled score")
    return problems


def check(name: str, workdir: Path, stdout: str) -> list[str]:
    out = workdir / workloads.OUT
    if name == "scaling-desk":
        return check_scaling(out, stdout, "desk", workloads.DESK_RHOS)
    if name == "scaling-paper":
        return check_scaling(out, stdout, "paper", workloads.PAPER_RHOS)
    if name == "curves":
        return check_curves(out, stdout)
    if name == "analyze":
        return check_analyze(out, stdout, workdir / workloads.SCORES)
    raise ValueError(f"unknown workload {name!r}")
