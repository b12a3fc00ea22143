import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelmetrics import cli, simulate
from panelmetrics.cli import main
from panelmetrics.emit import fmt6
from panelmetrics.empirics import ScoreTable, TaskScores, save_scores
from panelmetrics.laws import (
    effective_rho,
    efficiency_exponent,
    panel_precision,
)


FORMULA = ["formula", "--q", "0.2", "--rho", "0.5"]


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestFormula:
    def test_rows_match_library(self, capsys):
        rc = main(["formula", "--q", "0.2", "--rho", "0.55", "--n", "1,3,25"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,b,rho_n,precision"
        assert len(lines) == 4
        b = efficiency_exponent(0.2, 0.55)
        for line, n in zip(lines[1:], (1, 3, 25)):
            cells = line.split(",")
            assert cells[0] == str(n)
            assert cells[1] == fmt6(b)
            assert cells[2] == fmt6(effective_rho(n, 0.55, b))
            assert cells[3] == fmt6(panel_precision(0.2, 0.55, n, b))

    def test_unclipped_changes_exponent(self, capsys):
        main(["formula", "--q", "0.5", "--rho", "0.55", "--n", "1"])
        clipped_out = capsys.readouterr().out
        main(["formula", "--q", "0.5", "--rho", "0.55", "--n", "1", "--unclipped"])
        unclipped_out = capsys.readouterr().out
        assert clipped_out != unclipped_out
        b_row = unclipped_out.strip().splitlines()[1].split(",")
        assert b_row[1] == fmt6(efficiency_exponent(0.5, 0.55, clipped=False))

    def test_range_syntax(self, capsys):
        rc = main(["formula", "--q", "0.2", "--rho", "0.5", "--n", "1..6"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 7

    def test_regime_warning_small_q(self, capsys):
        rc = main(["formula", "--q", "0.01", "--rho", "0.5"])
        assert rc == 0
        assert "warning" in capsys.readouterr().err

    def test_regime_warning_high_rho(self, capsys):
        main(["formula", "--q", "0.2", "--rho", "0.95"])
        assert "warning" in capsys.readouterr().err

    def test_no_warning_inside_regime(self, capsys):
        main(["formula", "--q", "0.2", "--rho", "0.5"])
        assert capsys.readouterr().err == ""

    def test_output_files(self, tmp_path):
        out = tmp_path / "res"
        rc = main(
            ["formula", "--q", "0.2", "--rho", "0.55", "--n", "3", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "formula.csv")
        assert header == ["n", "b", "rho_n", "precision"]
        assert rows[0][3] == fmt6(panel_precision(0.2, 0.55, 3, efficiency_exponent(0.2, 0.55)))
        doc = json.loads((out / "formula.json").read_text())
        assert doc["rows"][0]["n"] == 3
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["command"] == "formula"
        assert "tool_version" in run

    def test_stdout_table_matches_csv_file(self, capsys, tmp_path):
        out = tmp_path / "res"
        rc = main(
            ["formula", "--q", "0.2", "--rho", "0.55", "--n", "1..12", "--out", str(out)]
        )
        assert rc == 0
        assert capsys.readouterr().out.encode() == (out / "formula.csv").read_bytes()

    def test_invalid_q_exits_2(self, capsys):
        assert main(["formula", "--q", "1.5", "--rho", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "q, rho, message",
        [("-1", "0.5", "q must lie in (0, 1], got -1.0"),
         ("0.2", "1.5", "rho must lie in [0, 1], got 1.5")],
    )
    def test_value_checked_before_regime_warning(self, capsys, q, rho, message):
        # both values are outside the regime too; only the error is printed
        assert main(["formula", "--q", q, "--rho", rho]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--q", "0.2"])
        assert exc.value.code == 2

    def test_reversed_range_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--q", "0.2", "--rho", "0.5", "--n", "5..1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([*FORMULA, "--n", "x"], "--n: invalid int value: 'x'"),
            ([*FORMULA, "--n", "1..x"], "--n: invalid int value: 'x'"),
            (["scaling", "--q", "0.2,x"], "--q: invalid float value: 'x'"),
        ],
        ids=["n", "n-range", "q-list"],
    )
    def test_bad_list_value_named(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {error}" in err
        assert "_parse" not in err

    @pytest.mark.parametrize("n", [",", ""])
    def test_empty_list_rejected(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--q", "0.2", "--rho", "0.5", "--n", n])
        assert exc.value.code == 2
        assert "argument --n: empty list" in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--q", "0.2", "--rho", "0.5", "--format", "xml"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["formula", "--q", "0.2", "--rho", "0.5"],
            ["plan", "--q", "0.2", "--rho", "0.55", "--target", "0.75"],
            ["curves"],
            ["scaling"],
            ["analyze", "scores.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, capsys, argv, threads):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", threads])
        assert exc.value.code == 2
        assert "argument --threads: threads must be at least 1" in capsys.readouterr().err

    def test_non_integer_threads_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--q", "0.2", "--rho", "0.5", "--threads", "x"])
        assert exc.value.code == 2
        assert "argument --threads: invalid int value: 'x'" in capsys.readouterr().err


class TestPlan:
    def test_reachable_target(self, capsys, tmp_path):
        out = tmp_path / "plan"
        rc = main(
            [
                "plan",
                "--q", "0.2",
                "--rho", "0.55",
                "--target", "0.75",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "panel of 3" in capsys.readouterr().out
        doc = json.loads((out / "plan.json").read_text())
        assert doc["required_n"] == 3

    def test_target_already_met_by_one(self, capsys):
        rc = main(["plan", "--q", "0.2", "--rho", "0.55", "--target", "0.3"])
        assert rc == 0
        assert "panel of 1" in capsys.readouterr().out

    def test_unachievable_exits_3(self, capsys, tmp_path):
        out = tmp_path / "plan"
        rc = main(
            [
                "plan",
                "--q", "0.2",
                "--rho", "0.55",
                "--target", "0.95",
                "--out", str(out),
            ]
        )
        assert rc == 3
        assert "unachievable" in capsys.readouterr().out
        doc = json.loads((out / "plan.json").read_text())
        assert doc["required_n"] is None

    def test_bad_target_exits_2(self, capsys):
        assert main(["plan", "--q", "0.2", "--rho", "0.55", "--target", "1.0"]) == 2

    @pytest.mark.parametrize(
        "q, rho, warned",
        [("0.01", "0.95", True), ("0.01", "0.5", True), ("0.2", "0.95", True),
         ("0.2", "0.55", False)],
    )
    def test_regime_warning_on_stderr_only(self, capsys, tmp_path, q, rho, warned):
        argv = ["plan", "--q", q, "--rho", rho, "--target", "0.9", "--n-max", "3"]
        rc = main([*argv, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        warning = (
            "warning: q < 0.05 or rho > 0.9 is outside the regime the exponent law "
            "was fitted on; treat values as extrapolation\n"
        )
        assert captured.err == (warning if warned else "")
        # stdout and plan.json carry no trace of the warning
        assert "warning" not in captured.out
        assert list(json.loads((tmp_path / "plan.json").read_text())) == [
            "q", "rho", "target", "n_max", "required_n", "achieved_precision"
        ]
        assert rc in (0, 3)

    def test_regime_warning_leaves_stdout_as_is(self, capsys):
        assert main(["plan", "--q", "0.01", "--rho", "0.95", "--target", "0.9"]) == 0
        achieved = panel_precision(0.01, 0.95, 1, efficiency_exponent(0.01, 0.95))
        assert capsys.readouterr().out == (
            f"panel of 1 reaches precision {fmt6(achieved)} (target 0.9) at q=0.01, rho=0.95\n"
        )

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--q", "-1", "--rho", "0.5"], "q must lie in (0, 1], got -1.0"),
            (["--q", "0.01", "--rho", "1.5"], "rho must lie in [0, 1], got 1.5"),
            (["--q", "0.01", "--rho", "0.95", "--n-max", "0"],
             "the largest panel size must be at least 1"),
        ],
        ids=["q", "rho", "n-max"],
    )
    def test_bad_value_exits_2_without_warning(self, capsys, argv, error):
        assert main(["plan", *argv, "--target", "0.9"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


# edge values of a q, rho or target argument, drawn beside random floats
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, math.inf, -math.inf, math.nan, -1.0, -5e-324]
)
LAW_FLOATS = EDGE_FLOATS | st.floats(0.0, 1.0) | st.floats(-0.5, 1.5) | st.floats()


def run_in_process(argv):
    """Exit code, stdout, stderr and the parsed JSON files of one command."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, f"--out={tmp}"])
        docs = {f.name: json.loads(f.read_text()) for f in Path(tmp).glob("*.json")}
    return rc, out.getvalue(), err.getvalue(), docs


def assert_clean_exit(rc, err, codes):
    assert rc in codes
    assert "Traceback" not in err
    if rc in (2, 4):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestLawCommandMatrix:
    """formula and plan over edge and random arguments, run through main."""

    @settings(max_examples=200, deadline=None)
    @given(q=LAW_FLOATS, rho=LAW_FLOATS, lo=st.integers(-2, 40), span=st.integers(0, 30))
    @example(q=0.01, rho=0.5, lo=0, span=2)  # outside the regime and n = 0: no warning
    def test_formula(self, q, rho, lo, span):
        argv = ["formula", f"--q={q!r}", f"--rho={rho!r}", f"--n={lo}..{lo + span}"]
        rc, _, err, docs = run_in_process(argv)
        assert_clean_exit(rc, err, {0, 2})
        if rc == 0:
            for row in docs["formula.json"]["rows"]:
                assert q <= row["precision"] <= 1.0
                assert 0.0 <= row["rho_n"] <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(q=LAW_FLOATS, rho=LAW_FLOATS, target=LAW_FLOATS, n_max=st.integers(-2, 60))
    def test_plan(self, q, rho, target, n_max):
        argv = ["plan", f"--q={q!r}", f"--rho={rho!r}", f"--target={target!r}",
                f"--n-max={n_max}"]
        rc, _, err, docs = run_in_process(argv)
        assert_clean_exit(rc, err, {0, 2, 3})
        if rc == 0:
            assert q <= docs["plan.json"]["achieved_precision"] <= 1.0


def score_csv(tasks):
    """CSV text of a score table: one score matrix per task, rows candidates."""
    n_ai = tasks[0].shape[1]
    lines = ["task,candidate_id,attr" + "".join(f",s{i}" for i in range(n_ai))]
    for t, mat in enumerate(tasks):
        lines += [f"t{t},c{j},," + ",".join(map(repr, row)) for j, row in enumerate(mat.tolist())]
    return "\n".join(lines) + "\n"


# b and c are exact multiples of a, a + 1 only to rounding: the three
# correlations with the weighted proxy come out 1.0, 1.0 and 0.9999999999999999
MULTIPLE_SCORERS = score_csv([np.column_stack([np.arange(6.0) * k + (k == 3) for k in (1, 2, 3)])])
# four orders of one set of scores: the variances differ in the last bit only
SHARED_SCORE_ORDERS = score_csv([np.array([5.3, 6.1, 6.8, 7.2, 7.9, 8.4, 9.0, 9.6])[np.array([
    [0, 1, 2, 3, 4, 5, 6, 7], [5, 0, 6, 4, 7, 1, 2, 3],
    [0, 3, 6, 1, 4, 5, 2, 7], [1, 0, 4, 2, 7, 5, 3, 6],
])].T])
# two uncorrelated scorers: rho_bar is exactly 0
ZERO_CORRELATION = score_csv([np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])])
# the pair's panel misses the top candidate and finds the top three: on the
# grid 0.2, 0.6, 1 its intercept is exactly 0
ZERO_PANEL_INTERCEPT = score_csv([np.array([[0.4, 0.3], [0.3, 0.3], [0.3, 0.3], [0.2, 0.2],
                                            [0.3, 0.4]])])


@st.composite
def score_tables(draw):
    """A small table whose scores are of one degenerate kind, as CSV text."""
    m, n_ai = draw(st.integers(2, 10)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(
        ["tied", "one-decimal", "permuted", "negated", "subnormal", "constant"]
    ))

    def ints(lo, hi, shape):
        return np.array(draw(st.lists(
            st.integers(lo, hi), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        )), dtype=float).reshape(shape)

    def matrix():
        if kind == "tied":
            return ints(0, 2, (m, n_ai))
        if kind == "permuted":
            shared = ints(0, 99, (m,)) / 10
            return np.column_stack([draw(st.permutations(shared.tolist())) for _ in range(n_ai)])
        # a shared factor plus scorer noise, in tenths
        mat = (ints(-30, 30, (m, 1)) + ints(-10, 10, (m, n_ai))) / 10
        if kind == "negated":
            mat[:, draw(st.integers(0, n_ai - 1))] *= -1
        if kind == "subnormal":
            mat *= 1e-320
        if kind == "constant":
            mat[:, draw(st.integers(0, n_ai - 1))] = 7.3
        return mat

    return score_csv([matrix() for _ in range(draw(st.integers(1, 2)))])


def run_analyze(table, q_points):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "scores.csv"
        src.write_text(table)
        return run_in_process(["analyze", str(src), f"--q-points={q_points}"])


class TestAnalyzeMatrix:
    """analyze over small degenerate tables, run through main."""

    @settings(max_examples=200, deadline=None)
    @given(table=score_tables(), q_points=st.integers(2, 5))
    @example(table=ZERO_CORRELATION, q_points=2)
    @example(table=ZERO_PANEL_INTERCEPT, q_points=3)
    def test_analyze(self, table, q_points):
        rc, _, err, docs = run_analyze(table, q_points)
        assert_clean_exit(rc, err, {0, 2, 4})
        if rc != 0:
            return
        assert err == ""
        report = docs["report.json"]
        for task in report["tasks"]:
            assert 0.0 < task["rho_bar"] <= 1.0
            assert all(-1.0 <= c <= 1.0 for row in task["correlation"] for c in row)
            assert all(0.0 <= w <= 1.0 for w in task["weights"])
            assert math.isclose(sum(task["weights"]), 1.0, rel_tol=1e-12)
            precisions = [task["average_values"], *task["per_ai_values"]]
            assert all(0.0 <= p <= 1.0 for curve in precisions for p in curve)
            percentages = [task["intercept_vs_rho_pct"]]
            percentages += [row["improvement_pct"] for row in task["subset_rows"][1:]]
            for row in task["sb_rows"]:
                percentages += [row["pct_pred_vs_obs"], row["pct_obs_vs_pred"]]
            # a percentage of an intercept of 0 is undefined and null
            assert all(pct is None or math.isfinite(pct) for pct in percentages)
        for mode in ("variance_weighted", "variance_unweighted"):
            vq = report[mode]
            assert all(-1.0 <= row["corr_with_truth"] <= 1.0 for row in vq["rows"])
            if vq["r"] is not None:
                assert -1.0 <= vq["r"] <= 1.0 and 0.0 <= vq["p_value"] <= 1.0

    def test_zero_mean_correlation_exits_2(self):
        rc, _, err, _ = run_analyze(ZERO_CORRELATION, 5)
        assert rc == 2
        assert err == "error: task 't0': mean scorer correlation rho_bar is 0, not positive\n"

    def test_negative_pair_keeps_its_message(self):
        # the two scorers correlate -0.5: the weights fail before rho_bar is checked
        rc, _, err, _ = run_analyze(score_csv([np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])]), 2)
        assert rc == 2
        assert err.startswith("error: task 't0': scorer column ") and err.count("\n") == 1
        assert "correlates negatively" in err

    @pytest.mark.parametrize(
        "table", [MULTIPLE_SCORERS, SHARED_SCORE_ORDERS], ids=["multiples", "shared-scores"]
    )
    def test_variances_equal_to_rounding_leave_r_undefined(self, table):
        rc, out, err, docs = run_analyze(table, 5)
        assert (rc, err) == (0, "")
        for mode in ("weighted", "unweighted"):
            assert f"variance-quality ({mode}): r=undefined p=undefined" in out
            vq = docs["report.json"][f"variance_{mode}"]
            assert vq["r"] is None and vq["p_value"] is None


# rho at and near 0 and 1: squares that underflow, noise too narrow for
# the Student-t anchor's grid, and the last double below 1
CURVES_RHOS = st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-160, 1e-154, 1e-9, 0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 2.0**-53,
     1.0, math.nan]
) | st.floats(0.0, 1.0)
# --t-dof at the edges of (2, 1e6]: the first double above 2 gives t a
# population sd of 6.7e7, on which the anchor calibrates its noise, and
# t(1e6) is normal to the anchor's accuracy
CURVES_DOFS = st.sampled_from(
    [2.0, 2.0 + 2.0**-51, 2.0 + 1e-9, 2.5, 4.0, 1e6, 1e6 + 1.0, math.inf, math.nan]
) | st.floats(2.0, 1e6)


class TestCurvesMatrix:
    """curves over small shapes and rho and --t-dof at their edges, run through main."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(10, 40), trials=st.integers(1, 3), points=st.integers(2, 6),
           rho=CURVES_RHOS, dof=CURVES_DOFS)
    @example(m=10, trials=1, points=2, rho=1e-300, dof=4.0)  # once a ZeroDivisionError
    @example(m=10, trials=1, points=2, rho=1e-160, dof=4.0)  # once an OverflowError
    @example(m=10, trials=1, points=2, rho=1.0 - 2.0**-53, dof=4.0)  # once a 97 GB grid
    @example(m=10, trials=1, points=2, rho=1.0 - 2.0**-53, dof=2.0 + 2.0**-51)
    def test_curves(self, m, trials, points, rho, dof):
        argv = ["curves", f"--m={m}", f"--trials={trials}", f"--points={points}",
                f"--rho={rho!r}", f"--t-dof={dof!r}", "--format=json"]
        rc, _, err, docs = run_in_process(argv)
        assert_clean_exit(rc, err, {0, 2})
        if not (0.0 < rho < 1.0 and 2.0 < dof <= 1e6):
            assert rc == 2
        if rc != 0:
            return
        assert err == ""
        doc = docs["curves.json"]
        for curve in doc["curves"].values():
            assert len(curve) == points
            assert all(0.0 <= p <= 1.0 for p in curve)
            # at q = 1 every candidate is selected
            assert curve[-1] == 1.0
        anchors = doc["anchors"]
        assert anchors["q_anchor"] == 1.0 / m
        for name in ("normal_limit", "t_limit", "heavy_tail_estimate", "p_avg_02"):
            assert 0.0 <= anchors[name] <= 1.0


class TestCurves:
    def run_small(self, out, fmt="csv,json,svg"):
        return main(
            [
                "curves",
                "--m", "50",
                "--trials", "10",
                "--points", "8",
                "--rho", "0.8",
                "--out", str(out),
                "--format", fmt,
            ]
        )

    def test_files_and_endpoints(self, capsys, tmp_path):
        out = tmp_path / "curves"
        assert self.run_small(out) == 0
        assert "anchors:" in capsys.readouterr().out
        for name in ("curves.csv", "anchors.csv", "curves.json", "curves.svg", "run.json"):
            assert (out / name).exists()

        header, rows = read_csv_rows(out / "curves.csv")
        assert header[0] == "q"
        assert header[1:5] == ["p_normal", "p_lognormal", "p_pareto", "p_student_t"]
        assert len(rows) == 8
        assert float(rows[0][0]) == pytest.approx(1 / 50)
        # at q=1 everything is selected, so every curve ends at exactly 1
        assert rows[-1][0] == "1"
        assert rows[-1][1:5] == ["1", "1", "1", "1"]

        doc = json.loads((out / "curves.json").read_text())
        assert set(doc["curves"]) == {"normal", "lognormal", "pareto", "student_t"}
        assert 0.0 <= doc["anchors"]["t_limit"] <= 1.0

    def test_format_filter(self, tmp_path):
        out = tmp_path / "svg_only"
        assert self.run_small(out, fmt="svg") == 0
        assert (out / "curves.svg").exists()
        assert not (out / "curves.csv").exists()
        assert not (out / "curves.json").exists()

    def test_bad_rho_exits_2(self, capsys):
        assert main(["curves", "--rho", "1.2", "--trials", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tiny_m_exits_2(self, capsys):
        assert main(["curves", "--m", "5", "--trials", "1"]) == 2

    @pytest.mark.parametrize("dof", ["inf", "1e300", "nan", "2"])
    def test_unusable_t_dof_exits_2_before_any_curve(self, capsys, monkeypatch, dof):
        def no_curves(*args):
            raise AssertionError("a curve was simulated")

        monkeypatch.setattr(cli, "simulate_distribution_curve", no_curves)
        assert main(["curves", "--t-dof", dof, "--m", "50", "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --t-dof must exceed 2 (finite variance) and be at most 1e+06; "
            "t with more dof is normal to the anchor's accuracy\n"
        )

    def test_rho_too_close_to_1_exits_2_before_any_curve(self, capsys, monkeypatch):
        def no_curves(*args):
            raise AssertionError("a curve was simulated")

        monkeypatch.setattr(cli, "simulate_distribution_curve", no_curves)
        assert main(["curves", "--rho", "0.9999999999999999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rho 0.9999999999999999 is too close to 1 for the "
                              "Student-t anchor at m=2000, dof=4: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_zero_trials_exits_2_before_any_draw(self, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(simulate, "sample_signal", lambda *a: draws.append(a))
        assert main(["curves", "--trials", "0"]) == 2
        assert capsys.readouterr().err == "error: trials must be at least 1\n"
        assert draws == []

    def test_largest_t_dof_runs(self, capsys):
        assert main(["curves", "--t-dof", "1e6", "--m", "50", "--trials", "2",
                     "--points", "5"]) == 0


SCALING_SMALL = [
    "scaling",
    "--q", "0.2",
    "--rho", "0.4,0.6",
    "--preset", "desk",
    "--samples", "40",
    "--max-size", "5",
    "--seed", "3",
]


class TestScaling:
    def test_grid_and_regression(self, capsys, tmp_path):
        out = tmp_path / "scan"
        rc = main([*SCALING_SMALL, "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "q=0.2: b ~" in text

        header, rows = read_csv_rows(out / "b_grid.csv")
        assert header == ["q", "target_rho", "measured_rho", "best_b"]
        assert [r[1] for r in rows] == ["0.4", "0.6"]
        for r in rows:
            assert 0.01 <= float(r[3]) <= 1.5

        _, reg_rows = read_csv_rows(out / "regression.csv")
        assert len(reg_rows) == 1
        doc = json.loads((out / "b_grid.json").read_text())
        assert doc["preset"] == "desk"
        assert doc["regression_errors"] == []

    def test_repeat_runs_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main([*SCALING_SMALL, "--out", str(out_a)])
        main([*SCALING_SMALL, "--out", str(out_b)])
        for name in ("b_grid.csv", "regression.csv", "b_grid.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("command", ["scaling", "curves", "analyze"])
    def test_thread_count_invisible_in_results(self, tmp_path, command):
        # run.json differs: it records --threads
        argv = SCALING_SMALL if command == "scaling" else list(SMALL_RUNS[command])
        if command == "analyze":
            write_fixture_table(tmp_path / "scores.csv")
            argv.append(str(tmp_path / "scores.csv"))
        out_a, out_b = tmp_path / "t1", tmp_path / "t4"
        for out, threads in ((out_a, "1"), (out_b, "4")):
            rc = main([*argv, "--out", str(out), "--threads", threads, "--format", "csv,json,svg"])
            assert rc == 0
        names = {p.name for p in out_a.iterdir()} - {"run.json"}
        assert names == {p.name for p in out_b.iterdir()} - {"run.json"}
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_rho_skips_regression(self, capsys, tmp_path):
        out = tmp_path / "single"
        rc = main(
            [
                "scaling",
                "--q", "0.2",
                "--rho", "0.5",
                "--samples", "30",
                "--max-size", "4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "regression skipped for q=0.2" in capsys.readouterr().err
        _, reg_rows = read_csv_rows(out / "regression.csv")
        assert reg_rows == []
        doc = json.loads((out / "b_grid.json").read_text())
        assert len(doc["regression_errors"]) == 1

    @pytest.mark.parametrize("max_size", ["0", "-3"])
    def test_no_panel_sizes_exits_2(self, capsys, max_size):
        rc = main([*SCALING_SMALL, f"--max-size={max_size}"])
        assert rc == 2
        assert "error: panel sizes must be a non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--max-size", "0"], "panel sizes must be a non-empty selection of 1..100"),
            (["--samples", "0"], "samples per panel size must be at least 1"),
            (["--q", "0"], "q must lie in (0, 1]"),
            (["--q", "0.2,1.5", "--rho", "0.4,0.5", "--samples", "50"], "q must lie in (0, 1]"),
            (["--rho", "0.4,1.5"], "target_rho must lie strictly between 0 and 1"),
            (["--boost", "nan"], "boost must be finite and non-negative"),
            (["--boost", "inf"], "boost must be finite and non-negative"),
            (["--max-size", "1", "--rho", "0.3,0.7"], "fitting b needs a panel size above 1"),
            (["--q", "1"], "q 1 selects all 1000 candidates, so b is not defined"),
            (
                ["--q", "0.2,0.2", "--rho", "0.4,0.6", "--samples", "20", "--max-size", "3"],
                "q 0.2 appears more than once in the grid",
            ),
            (
                ["--rho", "0.5,0.5", "--samples", "20", "--max-size", "3"],
                "rho 0.5 appears more than once in the grid",
            ),
        ],
        ids=[
            "max-size",
            "samples",
            "q",
            "second-q",
            "second-rho",
            "boost-nan",
            "boost-inf",
            "max-size-1",
            "q-selects-all",
            "repeated-q",
            "repeated-rho",
        ],
    )
    def test_bad_cell_exits_2_before_any_universe(self, capsys, monkeypatch, argv, error):
        draws = []
        monkeypatch.setattr(simulate, "generate_universe", lambda *a: draws.append(a))
        assert main(["scaling", *argv]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert draws == []

    def test_max_size_capped_at_scorer_count(self, tmp_path):
        out = tmp_path / "capped"
        argv = ["scaling", "--preset", "desk", "--max-size", "150", "--samples", "5"]
        assert main([*argv, "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["sizes"] == list(range(1, 101))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_boost_exits_2(self, capsys):
        argv = ["scaling", "--rho", "0.5", "--samples", "10", "--max-size", "3"]
        assert main([*argv, "--boost", "1e308"]) == 2
        assert capsys.readouterr().err == "error: boost 1e+308 overflows the tail transform\n"


def write_fixture_table(
    path, seed=90, m=40, n_ai=4, names=("alpha", "beta"), ranked=False
):
    """A table of correlated scorers; ``ranked`` replaces each column by
    its ranks 1..m, so every column has the same variance."""
    from panelmetrics.streams import SeededStream

    g = SeededStream(seed, 31).generator()

    def task(name):
        common = g.standard_normal(m)
        cols = np.column_stack([
            7.0 + np.sqrt(0.5) * common + np.sqrt(0.5) * g.standard_normal(m)
            for _ in range(n_ai)
        ])
        if ranked:
            cols = np.argsort(np.argsort(cols, axis=0), axis=0) + 1.0
        return TaskScores(
            name=name,
            candidate_ids=tuple(f"c{j}" for j in range(m)),
            attrs=tuple("new" if j % 2 else "old" for j in range(m)),
            matrix=cols,
        )

    table = ScoreTable(
        ai_names=tuple(f"ai_{i + 1}" for i in range(n_ai)),
        tasks=tuple(task(name) for name in names),
    )
    save_scores(table, path)
    return table


class TestAnalyze:
    def test_full_run(self, capsys, tmp_path):
        src = tmp_path / "scores.csv"
        write_fixture_table(src)
        out = tmp_path / "report"
        rc = main(
            [
                "analyze",
                str(src),
                "--q-points", "20",
                "--out", str(out),
                "--format", "csv,json,svg",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "task alpha:" in text
        assert "Spearman-Brown" in text
        assert "variance-quality (weighted)" in text

        for name in (
            "report.json",
            "tasks.csv",
            "subsets.csv",
            "spearman_brown.csv",
            "curves.csv",
            "qq.csv",
            "variance_quality.csv",
            "curves_alpha.svg",
            "curves_beta.svg",
            "run.json",
        ):
            assert (out / name).exists()

        _, sb_rows = read_csv_rows(out / "spearman_brown.csv")
        assert [r[1] for r in sb_rows if r[0] == "alpha"] == ["2", "3", "4"]
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["tasks"]) == 2
        assert doc["tasks"][0]["rho_bar"] == pytest.approx(0.5, abs=0.15)

    def test_rank_scored_table_leaves_variance_quality_undefined(self, capsys, tmp_path):
        src = tmp_path / "ranks.csv"
        # at m = 600 the equal variances' computed sd is not exactly 0
        write_fixture_table(src, m=600, ranked=True)
        out = tmp_path / "report"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "variance-quality (weighted): r=undefined p=undefined" in captured.out
        assert "variance-quality (unweighted): r=undefined p=undefined" in captured.out
        doc = json.loads((out / "report.json").read_text())
        for mode in ("variance_weighted", "variance_unweighted"):
            assert doc[mode]["r"] is None and doc[mode]["p_value"] is None
        _, rows = read_csv_rows(out / "variance_quality.csv")
        assert len({r[3] for r in rows}) == 1  # one variance for every column

    def test_two_scorer_one_task_table_leaves_variance_quality_undefined(
        self, capsys, tmp_path
    ):
        src = tmp_path / "pair.csv"
        write_fixture_table(src, n_ai=2, names=("alpha",))
        out = tmp_path / "report"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "variance-quality (weighted): r=undefined p=undefined" in captured.out
        assert "panel of 2: observed" in captured.out
        doc = json.loads((out / "report.json").read_text())
        for mode in ("variance_weighted", "variance_unweighted"):
            assert doc[mode]["r"] is None and doc[mode]["p_value"] is None
            assert len(doc[mode]["rows"]) == 2
        assert [row["size"] for row in doc["tasks"][0]["sb_rows"]] == [2]

    def test_single_q_point_exits_2(self, capsys, tmp_path):
        src = tmp_path / "scores.csv"
        write_fixture_table(src)
        assert main(["analyze", str(src), "--q-points", "1"]) == 2
        assert capsys.readouterr().err == "error: the quantile grid needs at least 2 points\n"

    def test_missing_file_exits_4(self, capsys, tmp_path):
        rc = main(["analyze", str(tmp_path / "absent.csv")])
        assert rc == 4
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_row_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("task,candidate_id,attr,ai_1,ai_2\na,c0,,1.0,oops\n")
        rc = main(["analyze", str(bad)])
        assert rc == 4
        assert "bad.csv:2" in capsys.readouterr().err

    def test_negatively_correlated_scorer_exits_2(
        self, capsys, tmp_path, negative_scorer_matrix
    ):
        m, n_ai = negative_scorer_matrix.shape
        src = tmp_path / "negative.csv"
        save_scores(
            ScoreTable(
                ai_names=tuple(f"ai_{i + 1}" for i in range(n_ai)),
                tasks=(
                    TaskScores(
                        name="probe",
                        candidate_ids=tuple(f"c{j}" for j in range(m)),
                        attrs=("",) * m,
                        matrix=negative_scorer_matrix,
                    ),
                ),
            ),
            src,
        )
        assert main(["analyze", str(src)]) == 2
        assert capsys.readouterr().err == (
            "error: task 'probe': scorer column 3 correlates negatively with the others: "
            "its leading-eigenvector entry is -0.366, so the weights are not a mixture\n"
        )

    def test_repeated_value_column_exits_2(self, capsys, tmp_path):
        # the column's computed mean is not exactly 7.3, so its computed sd is not 0
        src = tmp_path / "repeated.csv"
        table = write_fixture_table(src, m=600)
        tasks = []
        for task in table.tasks:
            matrix = task.matrix.copy()
            matrix[:, 2] = 7.3
            tasks.append(dataclasses.replace(task, matrix=matrix))
        save_scores(dataclasses.replace(table, tasks=tuple(tasks)), src)
        assert main(["analyze", str(src)]) == 2
        assert capsys.readouterr().err == (
            "error: task 'alpha': constant column has undefined correlation\n"
        )

    @staticmethod
    def _scaled_table(tmp_path, scale):
        src = tmp_path / "huge.csv"
        table = write_fixture_table(src, n_ai=3, names=("alpha",))
        task = dataclasses.replace(table.tasks[0], matrix=table.tasks[0].matrix * scale)
        save_scores(dataclasses.replace(table, tasks=(task,)), src)
        return src

    def test_huge_scores_leave_variance_quality_undefined(self, capsys, tmp_path):
        # the variances' squared spread overflows, the scores' does not
        src = self._scaled_table(tmp_path, 1e100)
        assert main(["analyze", str(src), "--out", str(tmp_path / "report")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "variance-quality (weighted): r=undefined p=undefined" in captured.out
        assert "variance-quality (unweighted): r=undefined p=undefined" in captured.out

    def test_scores_whose_squares_overflow_exit_2(self, capsys, tmp_path):
        src = self._scaled_table(tmp_path, 1e200)
        assert main(["analyze", str(src)]) == 2
        assert capsys.readouterr().err == (
            "error: task 'alpha': column sd is not finite: its squared deviations "
            "overflow, or it holds inf or nan\n"
        )

    def test_scores_whose_squares_underflow_exit_2(self, capsys, tmp_path):
        # no column is constant, but the squared deviations underflow to 0;
        # the same table times 1e300 runs
        src = tmp_path / "tiny.csv"
        src.write_text(score_csv([np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0]])
                                  * 1e-300]))
        assert main(["analyze", str(src)]) == 2
        assert capsys.readouterr().err == (
            "error: task 't0': scores too small in scale for their spread to be represented\n"
        )

    def test_empty_file_exits_4(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["analyze", str(empty)]) == 4

    @pytest.mark.parametrize(
        "name, content",
        [
            ("latin1.csv", b"task,candidate_id,attr,ai_1,ai_2\ncaf\xe9,c0,,1.0,2.0\n"),
            ("utf16.json", b"\xff\xfe" + '{"ai_names": []}'.encode("utf-16-le")),
            (
                "wide.csv",
                b"task,candidate_id,attr,ai_1,ai_2\na," + b"x" * 200_000 + b",,1.0,2.0\n",
            ),
        ],
        ids=["latin1", "utf16", "wide-field"],
    )
    def test_unreadable_table_exits_4(self, capsys, tmp_path, name, content):
        src = tmp_path / name
        src.write_bytes(content)
        assert main(["analyze", str(src)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    @pytest.mark.parametrize(
        "task_name, suffix", [("a/b", ".csv"), ("a\0b", ".json")], ids=["slash", "nul"]
    )
    def test_task_name_unusable_in_file_name_exits_4(
        self, capsys, tmp_path, task_name, suffix
    ):
        src = tmp_path / f"scores{suffix}"
        write_fixture_table(src, names=(task_name, "beta"))
        out = tmp_path / "report"
        rc = main(["analyze", str(src), "--out", str(out), "--format", "csv,json,svg"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(task_name) in err
        assert not out.exists()

    def test_duplicate_task_name_exits_4(self, capsys, tmp_path):
        src = tmp_path / "scores.json"
        write_fixture_table(src, names=("dup", "dup"))
        out = tmp_path / "report"
        rc = main(["analyze", str(src), "--out", str(out), "--format", "csv,json,svg"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'dup'" in err
        assert not out.exists()

    def test_duplicate_scorer_name_exits_4(self, capsys, tmp_path):
        src = tmp_path / "scores.csv"
        src.write_text(
            "task,candidate_id,attr,x,x,y\n"
            + "".join(f"a,c{j},,{j},{j % 3},{j % 4}\n" for j in range(8))
        )
        out = tmp_path / "report"
        assert main(["analyze", str(src), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: scorer 'x'") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_opposite_scorers_exit_2(self, capsys, tmp_path):
        # b = -a: the leading eigenvector sums to 0 and cannot be normalized
        a = np.round(np.random.default_rng(3).standard_normal(40), 1)
        src = tmp_path / "scores.csv"
        src.write_text(
            "task,candidate_id,attr,a,b\n"
            + "".join(f"t,c{j},,{x!r},{-x!r}\n" for j, x in enumerate(a.tolist()))
        )
        assert main(["analyze", str(src), "--out", str(tmp_path / "report")]) == 2
        # which column the rounding of the eigenvector's zero sum names is not fixed
        assert capsys.readouterr().err in {
            f"error: task 't': scorer column {col} correlates negatively with the others: "
            "its leading-eigenvector entry is -0.707, so the weights are not a mixture\n"
            for col in (0, 1)
        }

    def test_markup_in_task_name_gives_well_formed_svg(self, tmp_path):
        src = tmp_path / "scores.json"
        write_fixture_table(src, names=("R&D<1>", "beta"))
        out = tmp_path / "report"
        assert main(["analyze", str(src), "--out", str(out), "--format", "svg"]) == 0
        doc = minidom.parse(str(out / "curves_R&D<1>.svg"))
        title = doc.getElementsByTagName("text")[0].firstChild.data
        assert title == "Precision curves: R&D<1>"

    def test_task_name_with_comma_stays_one_cell(self, tmp_path):
        src = tmp_path / "scores.csv"
        write_fixture_table(src, names=("x,y", "beta"))
        out = tmp_path / "report"
        assert main(["analyze", str(src), "--out", str(out), "--format", "csv"]) == 0
        with open(out / "tasks.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == ["x,y", "beta"]

    def test_non_ascii_scorer_under_the_c_locale_writes_utf8(self, tmp_path):
        # Task names stay ASCII: they are printed, and stdout keeps the
        # terminal's encoding.
        table = write_fixture_table(tmp_path / "plain.csv")
        src = tmp_path / "scores.csv"
        save_scores(dataclasses.replace(table, ai_names=("é1", *table.ai_names[1:])), src)
        out = tmp_path / "report"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(cli.__file__).parents[1]),
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "panelmetrics.cli", "analyze", str(src), "--out", str(out),
             "--format", "csv,json,svg"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes().decode("utf-8") for p in out.iterdir()}
        assert len(files) == 10
        assert "p_é1" in files["curves.csv"].splitlines()[0]
        assert ">é1</text>" in files["curves_alpha.svg"]
        assert json.loads(files["report.json"])["ai_names"][0] == "é1"


# The files of the README's "Output files" table, per command.
OUTPUT_FILES = {
    "formula": ("formula.csv", "formula.json"),
    "plan": ("plan.csv", "plan.json"),
    "curves": ("curves.csv", "anchors.csv", "curves.json", "curves.svg"),
    "scaling": ("b_grid.csv", "regression.csv", "b_grid.json"),
    "analyze": (
        "report.json",
        "tasks.csv",
        "subsets.csv",
        "spearman_brown.csv",
        "curves.csv",
        "qq.csv",
        "variance_quality.csv",
        "curves_alpha.svg",
        "curves_beta.svg",
    ),
}

SMALL_RUNS = {
    "formula": ["formula", "--q", "0.2", "--rho", "0.5", "--n", "1..3"],
    "plan": ["plan", "--q", "0.2", "--rho", "0.55", "--target", "0.75"],
    "curves": ["curves", "--m", "50", "--trials", "2", "--points", "5"],
    "scaling": ["scaling", "--rho", "0.5", "--samples", "10", "--max-size", "3"],
    "analyze": ["analyze"],
}


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_format_selects_files_by_suffix(tmp_path, command, fmt):
    argv = list(SMALL_RUNS[command])
    if command == "analyze":
        src = tmp_path / "scores.csv"
        write_fixture_table(src)
        argv.append(str(src))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--format", fmt]) == 0
    expected = {name for name in OUTPUT_FILES[command] if name.endswith(f".{fmt}")}
    assert {p.name for p in out.iterdir()} == expected | {"run.json"}


AI_COLUMNS = ("p_ai_1", "p_ai_2", "p_ai_3", "p_ai_4")

CSV_HEADERS = [
    ("formula", "formula.csv", ("n", "b", "rho_n", "precision")),
    ("plan", "plan.csv", ("q", "rho", "target", "n_max", "required_n", "achieved_precision")),
    (
        "curves",
        "curves.csv",
        ("q", "p_normal", "p_lognormal", "p_pareto", "p_student_t", "reference"),
    ),
    (
        "curves",
        "anchors.csv",
        ("q_anchor", "normal_limit", "t_limit", "heavy_tail_estimate", "p_avg_02"),
    ),
    ("scaling", "b_grid.csv", ("q", "target_rho", "measured_rho", "best_b")),
    ("scaling", "regression.csv", ("q", "slope", "intercept", "r_squared")),
    ("analyze", "tasks.csv", ("task", "rho_bar", "intercept", "intercept_vs_rho_pct")),
    (
        "analyze",
        "subsets.csv",
        ("task", "size", "n_subsets", "avg_intercept", "improvement_pct"),
    ),
    (
        "analyze",
        "spearman_brown.csv",
        ("task", "size", "observed", "predicted", "pct_pred_vs_obs", "pct_obs_vs_pred"),
    ),
    ("analyze", "curves.csv", ("task", "q", "p_avg", *AI_COLUMNS)),
    ("analyze", "qq.csv", ("theoretical", "sample")),
    (
        "analyze",
        "variance_quality.csv",
        ("truth_mode", "task", "ai", "variance", "corr_with_truth"),
    ),
]


def test_csv_headers_cover_every_csv_file():
    pinned = {(command, name) for command, name, _ in CSV_HEADERS}
    assert pinned == {
        (command, name)
        for command, names in OUTPUT_FILES.items()
        for name in names
        if name.endswith(".csv")
    }


@pytest.mark.parametrize(
    "command, name, header", CSV_HEADERS, ids=[f"{c}-{n}" for c, n, _ in CSV_HEADERS]
)
def test_csv_header(tmp_path, command, name, header):
    argv = list(SMALL_RUNS[command])
    if command == "analyze":
        src = tmp_path / "scores.csv"
        write_fixture_table(src)
        argv.append(str(src))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--format", "csv"]) == 0
    assert (out / name).read_text().splitlines()[0] == ",".join(header)


# Each table of result rows, where the same rows sit in its JSON file, and
# its leading column: (command, CSV file, JSON file, lead, JSON rows as
# (lead values, row) pairs).
ROW_TABLES = [
    ("scaling", "b_grid.csv", "b_grid.json", (), lambda d: [((), r) for r in d["rows"]]),
    (
        "scaling",
        "regression.csv",
        "b_grid.json",
        (),
        lambda d: [((), r) for r in d["regressions"]],
    ),
    ("curves", "anchors.csv", "curves.json", (), lambda d: [((), d["anchors"])]),
    (
        "analyze",
        "subsets.csv",
        "report.json",
        ("task",),
        lambda d: [((t["name"],), r) for t in d["tasks"] for r in t["subset_rows"]],
    ),
    (
        "analyze",
        "spearman_brown.csv",
        "report.json",
        ("task",),
        lambda d: [((t["name"],), r) for t in d["tasks"] for r in t["sb_rows"]],
    ),
    (
        "analyze",
        "variance_quality.csv",
        "report.json",
        ("truth_mode",),
        lambda d: [
            ((v["truth_mode"],), r)
            for v in (d["variance_weighted"], d["variance_unweighted"])
            for r in v["rows"]
        ],
    ),
]


@pytest.mark.parametrize(
    "command, csv_name, json_name, lead, json_rows",
    ROW_TABLES,
    ids=[csv_name for _, csv_name, *_ in ROW_TABLES],
)
def test_row_table_csv_matches_json(tmp_path, command, csv_name, json_name, lead, json_rows):
    # two rho cells, so that regression.csv has a row
    argv = SCALING_SMALL if command == "scaling" else list(SMALL_RUNS[command])
    if command == "analyze":
        src = tmp_path / "scores.csv"
        write_fixture_table(src)
        argv.append(str(src))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--format", "csv,json"]) == 0
    with open(out / csv_name, newline="") as fh:
        header, *rows = csv.reader(fh)
    expected = json_rows(json.loads((out / json_name).read_text()))
    assert expected
    for _, row in expected:
        assert header == [*lead, *row]
    assert rows == [[fmt6(v) for v in (*values, *row.values())] for values, row in expected]
