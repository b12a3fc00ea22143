import json
import re

import numpy as np
import pytest

from panelmetrics import empirics
from panelmetrics.empirics import (
    ScoreTable,
    TaskScores,
    build_report,
    constrained_intercept_fit,
    load_scores,
    optimal_weights,
    panel_subset_analysis,
    qq_data,
    save_scores,
    spearman_brown_comparison,
    summary_stats,
    variance_quality,
)
from panelmetrics.errors import DataValidationError, DomainError
from panelmetrics.precision import precision_curve
from panelmetrics.streams import SeededStream, correlation_summary


def make_table(matrix, name="t1", attrs=None):
    m = matrix.shape[0]
    return ScoreTable(
        ai_names=tuple(f"ai_{i + 1}" for i in range(matrix.shape[1])),
        tasks=(
            TaskScores(
                name=name,
                candidate_ids=tuple(f"c{j}" for j in range(m)),
                attrs=tuple(attrs) if attrs is not None else ("",) * m,
                matrix=np.asarray(matrix, dtype=float),
            ),
        ),
    )


CSV_FIXTURE = """task,candidate_id,attr,ai_1,ai_2,ai_3
alpha,c0,new,7.0,6.5,7.2
alpha,c1,old,5.5,5.0,6.1
alpha,c2,new,8.2,8.0,7.9
alpha,c3,old,6.6,6.9,6.4
beta,c0,,4.0,4.4,4.1
beta,c1,,9.0,8.8,9.2
beta,c2,,6.1,5.9,6.3
"""


class TestLoadSaveScores:
    def test_csv_round_trip(self, tmp_path):
        src = tmp_path / "scores.csv"
        src.write_text(CSV_FIXTURE)
        table = load_scores(src)
        assert table.ai_names == ("ai_1", "ai_2", "ai_3")
        assert [t.name for t in table.tasks] == ["alpha", "beta"]
        assert table.tasks[0].matrix.shape == (4, 3)
        assert table.tasks[0].attrs[:2] == ("new", "old")

        back = tmp_path / "back.csv"
        save_scores(table, back)
        again = load_scores(back)
        assert again.ai_names == table.ai_names
        for a, b in zip(again.tasks, table.tasks):
            assert a.name == b.name
            assert a.candidate_ids == b.candidate_ids
            assert np.array_equal(a.matrix, b.matrix)

    def test_json_round_trip(self, tmp_path):
        src = tmp_path / "scores.csv"
        src.write_text(CSV_FIXTURE)
        table = load_scores(src)
        out = tmp_path / "scores.json"
        save_scores(table, out)
        again = load_scores(out)
        assert again.ai_names == table.ai_names
        assert np.array_equal(again.tasks[1].matrix, table.tasks[1].matrix)

    def test_json_text_equals_json_dumps(self, tmp_path):
        src = tmp_path / "scores.csv"
        src.write_text(CSV_FIXTURE)
        # An integer matrix is written as floats, as the JSON of a loaded table is.
        whole = TaskScores('é, "gamma"', ("c0", "c1"), ("x", ""), np.array([[1, 2, 3], [4, 5, 6]]))
        table = ScoreTable(("ai_1", "ai_é", "ai_3"), (*load_scores(src).tasks, whole))
        doc = {
            "ai_names": list(table.ai_names),
            "tasks": [
                {
                    "name": task.name,
                    "candidates": [
                        {"id": cand, "attr": attr, "scores": [float(s) for s in scores]}
                        for cand, attr, scores in zip(task.candidate_ids, task.attrs, task.matrix)
                    ],
                }
                for task in table.tasks
            ],
        }
        out = tmp_path / "scores.json"
        save_scores(table, out)
        assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("ascii")

    def test_missing_field_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "task,candidate_id,attr,ai_1,ai_2\n"
            "a,c0,,1.0,2.0\n"
            "a,c1,,3.0\n"
        )
        with pytest.raises(DataValidationError, match=r"bad\.csv:3"):
            load_scores(bad)

    def test_non_numeric_score_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "task,candidate_id,attr,ai_1,ai_2\n"
            "a,c0,,1.0,high\n"
        )
        with pytest.raises(DataValidationError, match=r"bad\.csv:2"):
            load_scores(bad)

    def test_too_few_ai_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("task,candidate_id,attr,ai_1\na,c0,,1.0\n")
        with pytest.raises(DataValidationError):
            load_scores(bad)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataValidationError):
            load_scores(empty)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_scores(tmp_path / "absent.csv")

    @pytest.mark.parametrize("name", ["a/b", "a\0b"], ids=["slash", "nul"])
    def test_task_name_unusable_in_file_name(self, tmp_path, name):
        path = tmp_path / "scores.json"
        save_scores(make_table(np.arange(12.0).reshape(6, 2), name=name), path)
        with pytest.raises(DataValidationError, match=re.escape(repr(name))):
            load_scores(path)

    def test_duplicate_task_name(self, tmp_path):
        task = make_table(np.arange(12.0).reshape(6, 2), name="dup").tasks[0]
        path = tmp_path / "scores.json"
        save_scores(ScoreTable(ai_names=("ai_1", "ai_2"), tasks=(task, task)), path)
        with pytest.raises(DataValidationError, match="'dup'"):
            load_scores(path)

    def test_duplicate_scorer_name(self, tmp_path):
        # two p_x columns in curves.csv and two indistinguishable
        # variance_quality rows otherwise
        path = tmp_path / "scores.csv"
        path.write_text(
            "task,candidate_id,attr,x,x,y\n"
            + "".join(f"a,c{j},,{j},{j % 3},{j % 4}\n" for j in range(8))
        )
        with pytest.raises(DataValidationError, match="scorer 'x': two scorer columns"):
            load_scores(path)


def weights_of(matrix):
    """The weights build_report gives a task's score matrix."""
    return optimal_weights(correlation_summary(matrix)[0])


class TestOptimalWeights:
    def test_two_symmetric_scorers(self):
        g = SeededStream(40).generator()
        v = g.standard_normal(500)
        mat = np.column_stack(
            [v + g.standard_normal(500), v + g.standard_normal(500)]
        )
        weights = weights_of(mat)
        assert weights == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_exchangeable_columns_near_uniform(self, equicorr_matrix):
        mat = equicorr_matrix(4000, 5, 0.55, seed=41)
        weights = weights_of(mat)
        assert np.max(np.abs(weights - 0.2)) < 0.02

    def test_weights_sum_to_one(self, equicorr_matrix):
        for seed in range(5):
            weights = weights_of(equicorr_matrix(300, 4, 0.5, seed=seed))
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_column_rescaling_leaves_weights_alone(self, equicorr_matrix):
        mat = equicorr_matrix(500, 4, 0.5, seed=42)
        scaled = mat.copy()
        scaled[:, 2] *= 4.0  # power of two keeps the standardization exact
        w_base = weights_of(mat)
        w_scaled = weights_of(scaled)
        assert w_scaled == pytest.approx(w_base, abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DomainError, match="constant column"):
            weights_of(np.column_stack([np.ones(10), np.arange(10.0)]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(DomainError, match="square correlation matrix"):
            optimal_weights(np.column_stack([np.ones(10), np.arange(10.0)]))

    def test_negatively_correlated_column_rejected(self, negative_scorer_matrix):
        with pytest.raises(DomainError, match="scorer column 3 correlates negatively"):
            weights_of(negative_scorer_matrix)

    @pytest.mark.filterwarnings("error")
    def test_opposite_pair_rejected_before_normalizing(self):
        # the leading eigenvector of [[1, -1], [-1, 1]] sums to 0
        a = np.round(SeededStream(5).generator().standard_normal(40), 1)
        with pytest.raises(DomainError, match="correlates negatively") as exc:
            weights_of(np.column_stack([a, -a]))
        number = re.search(r"entry is (\S+),", str(exc.value)).group(1)
        assert np.isfinite(float(number)) and float(number) < 0


class TestPairwiseCorrelations:
    def test_identical_columns(self):
        col = np.arange(20.0)
        corr, rho_bar = correlation_summary(np.column_stack([col, col + 1]))
        assert np.allclose(corr, 1.0)
        assert rho_bar == pytest.approx(1.0)

    def test_symmetric_unit_diagonal(self, equicorr_matrix):
        corr, _ = correlation_summary(equicorr_matrix(200, 4, 0.3))
        assert np.max(np.abs(corr - corr.T)) < 1e-12
        assert np.allclose(np.diag(corr), 1.0)

    def test_one_correlation_pass(self, equicorr_matrix, monkeypatch):
        mat = equicorr_matrix(200, 4, 0.3)
        calls = []
        corrcoef = np.corrcoef
        monkeypatch.setattr(np, "corrcoef", lambda *a, **k: calls.append(1) or corrcoef(*a, **k))
        corr, rho_bar = correlation_summary(mat)
        assert len(calls) == 1
        assert rho_bar == (corr.sum() - 4) / 12
        assert np.array_equal(corr, corrcoef(mat, rowvar=False))

    def test_constant_column_rejected(self):
        with pytest.raises(DomainError, match="constant column has undefined correlation"):
            correlation_summary(np.column_stack([np.ones(10), np.arange(10.0)]))


class TestConstrainedInterceptFit:
    def test_exact_line_recovered(self):
        grid = np.linspace(0.02, 1.0, 50)
        curve = 1.0 + (grid - 1.0) * (1.0 - 0.591)
        assert constrained_intercept_fit(grid, curve) == pytest.approx(0.591, abs=1e-12)

    def test_all_ones_curve(self):
        grid = np.linspace(0.1, 1.0, 10)
        assert constrained_intercept_fit(grid, np.ones(10)) == 1.0

    def test_diagonal_curve(self):
        grid = np.linspace(0.05, 1.0, 20)
        assert constrained_intercept_fit(grid, grid.copy()) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_linear_law_curve_returns_rho(self):
        # the n=1 law P(q) = rho + q(1-rho) is a line through (1,1)
        rho = 0.545
        grid = np.linspace(0.01, 1.0, 60)
        curve = rho + grid * (1 - rho)
        assert constrained_intercept_fit(grid, curve) == pytest.approx(rho, abs=1e-9)


class TestPerAiCurves:
    def test_column_equal_to_truth(self):
        g = SeededStream(50).generator()
        truth = g.standard_normal(150)
        mat = np.column_stack([truth, g.standard_normal(150)])
        grid = np.linspace(1 / 150, 1.0, 20)
        curves = precision_curve(mat, truth, grid)
        assert np.all(curves[0] == 1.0)
        assert np.allclose(curves.mean(axis=0), (curves[0] + curves[1]) / 2)


class TestPanelSubsetAnalysis:
    def test_identical_columns_give_intercept_one(self):
        col = np.arange(60.0)
        mat = np.column_stack([col] * 4)
        rows = panel_subset_analysis(mat, col, (2, 3, 4), np.linspace(1 / 60, 1.0, 50))
        for row in rows:
            assert row.avg_intercept == pytest.approx(1.0)

    def test_subset_counts(self, equicorr_matrix):
        mat = equicorr_matrix(80, 5, 0.5)
        grid = np.linspace(1 / 80, 1.0, 50)
        rows = panel_subset_analysis(mat, mat @ weights_of(mat), (2, 3, 4), grid)
        assert [r.n_subsets for r in rows] == [10, 10, 5]
        assert rows[0].improvement_pct is None
        assert rows[1].improvement_pct is not None

    def test_size_one_matches_per_ai_average(self, equicorr_matrix):
        mat = equicorr_matrix(120, 4, 0.5, seed=3)
        proxy = mat @ weights_of(mat)
        grid = np.linspace(1 / 120, 1.0, 30)
        rows = panel_subset_analysis(mat, proxy, (1,), grid)
        average = precision_curve(mat, proxy, grid).mean(axis=0)
        assert rows[0].avg_intercept == pytest.approx(
            constrained_intercept_fit(grid, average), abs=1e-12
        )

    def test_change_from_a_zero_average_is_undefined(self):
        # each scorer misses the top candidate and finds the top three, so on
        # the grid 0.2, 0.6, 1 its intercept is exactly 0
        y = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        mat = np.array([[4.0, 4.0], [5.0, 3.0], [3.0, 5.0], [1.0, 1.0], [2.0, 2.0]])
        rows = panel_subset_analysis(mat, y, (1, 2), np.linspace(0.2, 1.0, 3))
        assert rows[0].avg_intercept == 0.0
        assert rows[1].improvement_pct is None

    def test_oversized_subset_rejected(self):
        mat = SeededStream(7).generator().normal(size=(20, 3))
        with pytest.raises(DomainError):
            panel_subset_analysis(mat, mat.mean(axis=1), (4,), np.linspace(0.05, 1.0, 20))


class TestSpearmanBrownComparison:
    def test_published_predictions(self):
        rows = spearman_brown_comparison(
            0.545, [(2, 0.734), (3, 0.794), (4, 0.849)]
        )
        assert [round(r.predicted, 4) for r in rows] == [0.7055, 0.7823, 0.8273]

    def test_equal_values_zero_percent(self):
        pred2 = 2 * 0.5 / (1 + 0.5)
        rows = spearman_brown_comparison(0.5, [(2, pred2)])
        assert rows[0].pct_pred_vs_obs == pytest.approx(0.0, abs=1e-9)
        assert rows[0].pct_obs_vs_pred == pytest.approx(0.0, abs=1e-9)

    def test_conventions_have_opposite_signs(self):
        rows = spearman_brown_comparison(0.5, [(2, 0.6)])
        assert rows[0].pct_pred_vs_obs * rows[0].pct_obs_vs_pred < 0

    def test_zero_observed_leaves_its_percentage_undefined(self):
        rows = spearman_brown_comparison(0.5, [(2, 0.0)])
        assert rows[0].pct_pred_vs_obs is None
        assert rows[0].pct_obs_vs_pred == pytest.approx(-100.0)


class TestSummaryStats:
    def test_hand_computed(self):
        mat = np.array([[1.0, 3.0], [5.0, 7.0]])
        stats = summary_stats(make_table(mat))
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(4.0)
        assert stats["sd"] == pytest.approx(np.sqrt(5.0))
        assert (stats["min"], stats["max"]) == (1.0, 7.0)

    def test_constant_scores(self):
        stats = summary_stats(make_table(np.full((3, 2), 6.0)))
        assert stats["mean"] == 6.0
        assert stats["sd"] == 0.0

    def test_attribute_groups(self):
        mat = np.array([[2.0, 2.0], [4.0, 4.0], [9.0, 9.0]])
        stats = summary_stats(make_table(mat, attrs=("a", "b", "a")))
        assert set(stats["by_attr"]) == {"a", "b"}
        assert stats["by_attr"]["a"]["mean"] == pytest.approx(5.5)
        assert stats["by_attr"]["b"]["count"] == 2


class TestQQData:
    def test_output_shape_and_sorting(self):
        g = SeededStream(60).generator()
        pairs = qq_data(g.standard_normal(500))
        assert pairs.shape == (500, 2)
        assert np.all(np.diff(pairs[:, 0]) > 0)
        assert np.all(np.diff(pairs[:, 1]) >= 0)

    def test_normal_sample_tracks_diagonal(self):
        g = SeededStream(61).generator()
        pairs = qq_data(g.standard_normal(10000))
        central = pairs[100:-100]
        assert np.max(np.abs(central[:, 0] - central[:, 1])) < 0.1

    def test_symmetric_input_antisymmetric_pairs(self):
        vals = np.concatenate([np.arange(1, 50.0), -np.arange(1, 50.0), [0.0]])
        pairs = qq_data(vals)
        assert np.allclose(pairs[:, 0], -pairs[::-1, 0], atol=1e-12)
        assert np.allclose(pairs[:, 1], -pairs[::-1, 1], atol=1e-12)

    def test_needs_three_values(self):
        with pytest.raises(DomainError):
            qq_data(np.array([1.0, 2.0]))

    # the repeated 7.3 gets a computed sd of 8.9e-16, not 0; the 1e200
    # spread's squares overflow
    @pytest.mark.parametrize(
        "scores, message",
        [
            (np.full(7, 7.3), "constant column"),
            (np.arange(7.0) * 1e200, "column sd is not finite"),
        ],
        ids=["repeated-value", "overflowing-spread"],
    )
    def test_degenerate_sample_rejected(self, scores, message):
        with np.errstate(all="raise"), pytest.raises(DomainError, match=message):
            qq_data(scores)


def truths_for(table, mode):
    """The per-task truths that build_report passes for a truth mode."""
    if mode == "weighted":
        return [t.matrix @ weights_of(t.matrix) for t in table.tasks]
    return [t.matrix.mean(axis=1) for t in table.tasks]


def run_variance_quality(table, mode):
    return variance_quality(table, truths_for(table, mode), mode)


class TestVarianceQuality:
    def _table(self):
        g = SeededStream(70).generator()
        v = g.standard_normal(120)
        cols = [v * s + g.standard_normal(120) * 0.8 for s in (0.5, 0.8, 1.1, 1.4)]
        return make_table(np.column_stack(cols) + 7.0)

    def test_row_layout(self):
        result = run_variance_quality(self._table(), "weighted")
        assert len(result["rows"]) == 4
        assert result["rows"][0].task == "t1"
        assert 0.0 <= result["p_value"] <= 1.0

    def test_spreading_more_correlates_here(self):
        # columns built with variance proportional to signal share
        result = run_variance_quality(self._table(), "unweighted")
        assert result["r"] > 0.5

    def test_modes_differ(self):
        table = self._table()
        weighted = run_variance_quality(table, "weighted")
        unweighted = run_variance_quality(table, "unweighted")
        assert weighted["truth_mode"] == "weighted"
        assert weighted["r"] != unweighted["r"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            run_variance_quality(self._table(), "robust")

    def test_two_rows_give_undefined_r(self):
        # two points always lie on a line, leaving the test no degrees of freedom
        mat = SeededStream(71).generator().normal(size=(30, 2))
        result = run_variance_quality(make_table(mat), "unweighted")
        assert result["r"] is None and result["p_value"] is None
        assert len(result["rows"]) == 2

    def test_rank_scored_table_gives_undefined_r(self, equicorr_matrix):
        ranks = np.argsort(np.argsort(equicorr_matrix(50, 4, 0.5, seed=72), axis=0), axis=0)
        table = make_table(ranks + 1.0)
        with np.errstate(all="raise"):
            result = run_variance_quality(table, "weighted")
        assert result["r"] is None and result["p_value"] is None
        assert len({row.variance for row in result["rows"]}) == 1
        assert all(0.0 < row.corr_with_truth < 1.0 for row in result["rows"])

    def test_one_truth_per_task(self):
        table = self._table()
        with pytest.raises(DomainError):
            variance_quality(table, truths_for(table, "unweighted") * 2, "unweighted")


class TestBuildReport:
    def test_full_chain(self, equicorr_matrix):
        mat = equicorr_matrix(150, 5, 0.5, seed=80)
        table = ScoreTable(
            ai_names=("a1", "a2", "a3", "a4", "a5"),
            tasks=(
                TaskScores(
                    name="only",
                    candidate_ids=tuple(f"c{j}" for j in range(150)),
                    attrs=("x",) * 150,
                    matrix=mat,
                ),
            ),
        )
        report = build_report(table, q_points=25)
        task = report["tasks"][0]
        assert task["per_ai_values"].shape == (5, 25)
        assert task["weights"].sum() == pytest.approx(1.0, abs=1e-9)
        assert [r.size for r in task["subset_rows"]] == [2, 3, 4]
        assert report["qq_pairs"].shape == (750, 2)
        assert 0.0 <= report["variance_weighted"]["p_value"] <= 1.0

    def test_two_ai_table_limits_sizes(self):
        g = SeededStream(81).generator()

        def two_col():
            v = g.standard_normal(60)
            return np.column_stack([v + g.standard_normal(60) * 0.5 for _ in range(2)])

        # two tasks so the variance diagnostic has enough rows
        table = ScoreTable(
            ai_names=("a1", "a2"),
            tasks=tuple(
                TaskScores(
                    name=name,
                    candidate_ids=tuple(f"c{j}" for j in range(60)),
                    attrs=("",) * 60,
                    matrix=two_col(),
                )
                for name in ("first", "second")
            ),
        )
        report = build_report(table, q_points=10)
        assert [r.size for r in report["tasks"][0]["subset_rows"]] == [2]
        assert [r.size for r in report["tasks"][0]["sb_rows"]] == [2]

    def test_one_correlation_pass(self, equicorr_matrix, monkeypatch):
        table = ScoreTable(
            ai_names=tuple(f"a{i}" for i in range(8)),
            tasks=tuple(
                make_table(equicorr_matrix(60, 8, 0.5, seed=83 + t), name=f"t{t}").tasks[0]
                for t in range(3)
            ),
        )
        calls = []
        corrcoef = np.corrcoef
        monkeypatch.setattr(np, "corrcoef", lambda *a, **k: calls.append(1) or corrcoef(*a, **k))
        report = build_report(table, q_points=10)
        # per task: the scorer matrix and one per truth mode; then one global r per mode
        assert len(calls) == 3 * (1 + 2) + 2
        for task in report["tasks"]:
            vec = np.linalg.eigh(task["correlation"])[1][:, -1]
            vec = -vec if vec.sum() < 0 else vec
            assert np.array_equal(task["weights"], vec / vec.sum())

    def test_weights_computed_once_per_task(self, monkeypatch):
        g = SeededStream(82).generator()
        v = g.standard_normal((2, 50, 1))
        table = ScoreTable(
            ai_names=("a1", "a2", "a3"),
            tasks=tuple(
                make_table(v[t] + g.standard_normal((50, 3)), name=f"t{t}").tasks[0]
                for t in range(2)
            ),
        )
        calls = []

        def counting(corr):
            calls.append(corr.shape)
            return optimal_weights(corr)

        monkeypatch.setattr(empirics, "optimal_weights", counting)
        report = build_report(table, q_points=10)
        assert len(calls) == 2
        assert report["variance_weighted"]["rows"] == run_variance_quality(
            table, "weighted"
        )["rows"]
