"""Each correctness check passes on real outputs and rejects corrupted ones.

The workloads run once each, at seed 0, through ``child.py`` as the
benchmark runs them. Every corruption below must be caught, so that no
check passes vacuously.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parents[1]
SEED = 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    done = {}

    def get(name):
        if name not in done:
            workdir = tmp_path_factory.mktemp(name)
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--workload", name,
                 f"--seed={SEED}", "--trace", "0"],
                cwd=workdir, capture_output=True, text=True, check=True, timeout=120,
            )
            done[name] = (workdir, proc.stdout)
        return done[name]

    return get


@pytest.fixture
def copy_of(runs, tmp_path):
    """A fresh copy of a workload's working directory, and its stdout."""

    def make(name):
        workdir, stdout = runs(name)
        target = tmp_path / name
        shutil.copytree(workdir, target)
        return target, stdout

    return make


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def replace_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


def found(problems, needle):
    assert any(needle in p for p in problems), problems


@pytest.mark.parametrize("name", workloads.NAMES)
def test_real_outputs_pass(runs, name):
    workdir, stdout = runs(name)
    assert checks.check(name, workdir, stdout) == []


# --- scaling ---------------------------------------------------------------

def _scaling(copy_of, name="scaling-desk"):
    workdir, stdout = copy_of(name)
    return workdir, workdir / workloads.OUT, stdout


def test_scaling_rejects_b_off_the_law(copy_of):
    workdir, out, stdout = _scaling(copy_of)

    def move(doc):
        row = doc["rows"][0]
        row["best_b"] = row["q"] + 0.8 * (1 - row["measured_rho"]) + checks.B_BAND + 0.01
    edit_json(out / "b_grid.json", move)
    found(checks.check("scaling-desk", workdir, stdout), "is not within")


def test_scaling_rejects_b_at_the_bracket(copy_of):
    workdir, out, stdout = _scaling(copy_of)
    edit_json(out / "b_grid.json", lambda doc: doc["rows"][1].update(best_b=1.4999951))
    found(checks.check("scaling-desk", workdir, stdout), "search bracket")


def test_scaling_rejects_rho_far_from_target(copy_of):
    workdir, out, stdout = _scaling(copy_of)
    edit_json(out / "b_grid.json", lambda doc: doc["rows"][0].update(measured_rho=0.47))
    found(checks.check("scaling-desk", workdir, stdout), "far from its target")


def test_scaling_rejects_a_csv_that_disagrees(copy_of):
    workdir, out, stdout = _scaling(copy_of)
    lines = (out / "b_grid.csv").read_text().splitlines()
    replace_line(out / "b_grid.csv", 1, lines[1][:-1] + ("1" if lines[1][-1] != "1" else "2"))
    found(checks.check("scaling-desk", workdir, stdout), "b_grid.csv")


def test_scaling_rejects_a_stdout_table_that_disagrees(copy_of):
    workdir, _, stdout = _scaling(copy_of)
    lines = stdout.splitlines()
    lines[2] = lines[2].replace("0.7,", "0.75,", 1)
    found(checks.check("scaling-desk", workdir, "\n".join(lines)), "stdout table")


def test_scaling_rejects_a_wrong_regression(copy_of):
    workdir, out, stdout = _scaling(copy_of)
    edit_json(out / "b_grid.json", lambda doc: doc["regressions"][0].update(slope=-0.5))
    found(checks.check("scaling-desk", workdir, stdout), "regression")


def test_single_cell_scaling_rejects_a_missing_file(copy_of):
    workdir, out, stdout = _scaling(copy_of, "scaling-paper")
    assert checks.check("scaling-paper", workdir, stdout) == []
    (out / "regression.csv").unlink()
    found(checks.check("scaling-paper", workdir, stdout), "missing output file regression.csv")


# --- curves ----------------------------------------------------------------

def _curves(copy_of):
    workdir, stdout = copy_of("curves")
    return workdir, workdir / workloads.OUT, stdout


def test_independent_normal_limit_matches_a_known_value():
    # rho = 0 makes the two exceedances independent: P = q * q / q = q
    assert checks.normal_limit(400, 0.0) == pytest.approx(1 / 400, rel=1e-9)


@pytest.mark.parametrize(
    "change, needle",
    [
        (lambda d: d["curves"]["pareto"].__setitem__(5, 1.01), "outside [0, 1]"),
        (lambda d: d["curves"]["lognormal"].__setitem__(-1, 0.9999999), "at q = 1"),
        (lambda d: d["anchors"].update(normal_limit=d["anchors"]["normal_limit"] * (1 + 1e-5)),
         "normal_limit"),
        (lambda d: d["anchors"].update(
            heavy_tail_estimate=d["anchors"]["heavy_tail_estimate"] + 1e-9), "heavy_tail_estimate"),
        (lambda d: d["anchors"].update(p_avg_02=d["anchors"]["p_avg_02"] + 1e-9), "p_avg_02"),
        (lambda d: d["reference"].__setitem__(0, d["reference"][0] + 1e-9), "reference"),
        (lambda d: d["q_grid"].__setitem__(3, d["q_grid"][3] * (1 + 1e-6)), "q_grid"),
    ],
)
def test_curves_reject_corrupted_json(copy_of, change, needle):
    workdir, out, stdout = _curves(copy_of)
    edit_json(out / "curves.json", change)
    found(checks.check("curves", workdir, stdout), needle)


def test_curves_reject_a_normal_curve_off_p20(copy_of):
    workdir, out, stdout = _curves(copy_of)
    doc = json.loads((out / "curves.json").read_text())
    near = int(np.argmin(np.abs(np.array(doc["q_grid"]) - 0.2)))
    shift = 0.04
    doc["curves"]["normal"][near] += shift
    # keep the average anchor consistent, so only the p20 check can fire
    doc["anchors"]["p_avg_02"] += shift / 4
    p = doc["anchors"]["p_avg_02"]
    doc["anchors"]["heavy_tail_estimate"] = 1 - (1 - p) / math.log10(2 * checks.CURVES_M)
    doc["reference"] = [1 + (1 - p) / 0.8 * (q - 1) for q in doc["q_grid"]]
    (out / "curves.json").write_text(json.dumps(doc))
    problems = checks.check("curves", workdir, stdout)
    found(problems, "not within 0.03")


def test_curves_reject_csv_and_stdout_that_disagree(copy_of):
    workdir, out, stdout = _curves(copy_of)
    replace_line(out / "anchors.csv", 1, "0.0005,0.2,0.7,0.9,0.6")
    problems = checks.check("curves", workdir, stdout.replace("heavy=", "heavy=1"))
    found(problems, "anchors.csv")
    found(problems, "stdout")


# --- analyze ---------------------------------------------------------------

def _analyze(copy_of):
    workdir, stdout = copy_of("analyze")
    return workdir, workdir / workloads.OUT, stdout


def _highest_index_curve(x, v, q_grid):
    """The precision curve with ties broken toward the higher index."""
    m = x.size
    index = np.arange(m)
    rank = np.empty((2, m), dtype=np.int64)
    rank[0, np.lexsort((-index, -x))] = index
    rank[1, np.lexsort((-index, -v))] = index
    worst = rank.max(axis=0)
    return [np.count_nonzero(worst < max(math.floor(q * m + 0.5), 1)) / max(math.floor(q * m + 0.5), 1)
            for q in q_grid]


def test_analyze_rejects_the_wrong_tie_break(copy_of):
    workdir, out, stdout = _analyze(copy_of)
    tasks = checks.read_score_table(workdir / workloads.SCORES)
    doc = json.loads((out / "report.json").read_text())
    task = doc["tasks"][0]
    mat = tasks[0][2]
    proxy = mat @ np.array(task["weights"])
    wrong = _highest_index_curve(mat[:, 0], proxy, task["q_grid"])
    assert wrong != task["per_ai_values"][0]  # the rounded scores do tie
    task["per_ai_values"][0] = wrong
    (out / "report.json").write_text(json.dumps(doc))
    found(checks.check("analyze", workdir, stdout), "per-scorer curves")


@pytest.mark.parametrize(
    "change, needle",
    [
        (lambda d: d["tasks"][1].update(rho_bar=d["tasks"][1]["rho_bar"] + 1e-8), "rho_bar"),
        (lambda d: d["tasks"][2]["weights"].__setitem__(0, d["tasks"][2]["weights"][0] + 1e-5),
         "weights"),
        (lambda d: d["tasks"][0]["sb_rows"][1].update(
            predicted=d["tasks"][0]["sb_rows"][1]["predicted"] * (1 + 1e-9)), "Spearman-Brown"),
        (lambda d: d["qq_pairs"][7].__setitem__(0, d["qq_pairs"][7][0] + 1e-8), "QQ theoretical"),
        (lambda d: d["variance_weighted"].update(
            p_value=d["variance_weighted"]["p_value"] * (1 + 1e-5)), "p-value"),
        (lambda d: d["variance_unweighted"]["rows"][4].update(corr_with_truth=0.5), "correlations"),
        (lambda d: d["summary"].update(sd=d["summary"]["sd"] + 1e-6), "summary"),
    ],
)
def test_analyze_rejects_corrupted_report(copy_of, change, needle):
    workdir, out, stdout = _analyze(copy_of)
    edit_json(out / "report.json", change)
    found(checks.check("analyze", workdir, stdout), needle)


def test_analyze_rejects_rho_bar_far_from_the_population(copy_of):
    workdir, out, stdout = _analyze(copy_of)
    problems = checks.check_analyze(out, stdout, workdir / workloads.SCORES, task_rhos=(0.3, 0.5, 0.85))
    found(problems, "far from the population")


def test_analyze_rejects_a_missing_plot(copy_of):
    workdir, out, stdout = _analyze(copy_of)
    (out / "curves_task2.svg").unlink()
    found(checks.check("analyze", workdir, stdout), "curves_task2.svg")
