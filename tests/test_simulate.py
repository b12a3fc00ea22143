import re
import tracemalloc

import numpy as np
import pytest

from panelmetrics import simulate
from panelmetrics.errors import DomainError
from panelmetrics.precision import log_q_grid, precision_curve, stable_rank, top_count
from panelmetrics.simulate import (
    ScanPreset,
    b_grid_scan,
    fit_exponent_b,
    generate_universe,
    panel_precision_scan,
    regress_b_on_rho,
    simulate_distribution_curve,
    BGridRow,
)
from panelmetrics.streams import (
    DISTRIBUTION_KINDS,
    SeededStream,
    add_calibrated_noise,
    correlation_summary,
    mean_correlation,
    sample_signal,
)

# small enough to keep the suite quick, large enough to be meaningful
SMALL = dict(n_ais=20, m_candidates=400)
# the paper's universe: 100 scorers, 2000 candidates
PAPER = dict(n_ais=100, m_candidates=2000)


class TestGenerateUniverse:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho=0.0),
            dict(rho=1.0),
            dict(rho=0.5, n_ais=1),
            dict(rho=0.5, boost=-1.0),
            dict(rho=0.5, boost=float("nan")),
            dict(rho=0.5, boost=float("inf")),
            dict(rho=0.5, m_candidates=1),
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(DomainError):
            generate_universe(stream=SeededStream(0), **{**PAPER, **kwargs})

    def test_shapes_and_truth_consistency(self):
        scores = generate_universe(0.5, **SMALL, stream=SeededStream(1))
        assert scores.shape == (400, 20)
        assert -1.0 < correlation_summary(scores)[1] < 1.0

    def test_column_scales_respect_bounds(self):
        sds = generate_universe(0.5, **SMALL, stream=SeededStream(2)).std(axis=0)
        assert np.all(sds >= 0.2 - 1e-9)
        assert np.all(sds <= 1.2 + 1e-9)

    def test_tight_spread_hits_target_rho(self):
        # the scorers' signal shares spread by only 0.05 around the target,
        # so the factor model keeps the mean pairwise correlation near it
        scores = generate_universe(0.6, **PAPER, stream=SeededStream(3))
        assert correlation_summary(scores)[1] == pytest.approx(0.6, abs=0.02)

    def test_deterministic(self):
        a = generate_universe(0.4, **SMALL, stream=SeededStream(9))
        b = generate_universe(0.4, **SMALL, stream=SeededStream(9))
        assert a.tobytes() == b.tobytes()

    def test_boost_changes_scores_not_center(self):
        a = generate_universe(0.5, **SMALL, stream=SeededStream(4))
        b = generate_universe(0.5, **SMALL, stream=SeededStream(4), boost=1.0)
        assert not np.array_equal(a, b)
        assert b.mean() == pytest.approx(7.0, abs=1e-9)

    # 1e200 transforms to finite values whose squares overflow the sd
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("boost", [1e200, 1e308])
    def test_overflowing_boost_rejected(self, boost):
        with pytest.raises(DomainError, match=re.escape(f"boost {boost:g} overflows")):
            generate_universe(0.5, **SMALL, stream=SeededStream(4), boost=boost)


class TestMeanOffdiagCorrelation:
    def test_identical_columns(self):
        col = np.arange(10.0)
        assert correlation_summary(np.column_stack([col, col]))[1] == pytest.approx(1.0)

    def test_negated_column(self):
        col = np.arange(10.0)
        assert correlation_summary(np.column_stack([col, -col]))[1] == pytest.approx(
            -1.0
        )

    def test_three_column_hand_case(self):
        g = SeededStream(5).generator()
        mat = g.standard_normal((50, 3))
        c = np.corrcoef(mat, rowvar=False)
        expected = (c[0, 1] + c[0, 2] + c[1, 2]) / 3
        assert correlation_summary(mat)[1] == pytest.approx(expected, abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DomainError):
            correlation_summary(np.column_stack([np.ones(5), np.arange(5.0)]))

    # the repeated 7.3 gets a computed sd near 1e-16; the 1e-300 spread has
    # max > min but an sd whose squares underflow to 0; the 1e200 spread's
    # squares overflow
    @pytest.mark.parametrize(
        "column, message",
        [
            (np.full(600, 7.3), "constant column"),
            (np.array([0.0, 1e-300] * 300), "scores too small in scale"),
            (np.array([0.0, 1e200] * 300), "column sd is not finite"),
        ],
        ids=["repeated-value", "underflowing-spread", "overflowing-spread"],
    )
    def test_degenerate_column_rejected(self, column, message):
        mat = np.column_stack([np.arange(600.0), column])
        with np.errstate(all="raise"), pytest.raises(DomainError, match=message):
            correlation_summary(mat)


@pytest.fixture(scope="module")
def small_universe():
    return generate_universe(0.5, **SMALL, stream=SeededStream(20))


class TestPanelPrecisionScan:
    def test_full_panel_is_exact(self, small_universe):
        avg = panel_precision_scan(
            small_universe, 0.2, SeededStream(21), sizes=[20], samples_per_size=10
        )
        assert avg[0] == 1.0

    def test_roughly_monotone_in_size(self, small_universe):
        p = panel_precision_scan(
            small_universe,
            0.2,
            SeededStream(22),
            sizes=range(1, 16),
            samples_per_size=600,
        )
        assert np.all(np.diff(p) > -0.01)
        assert p[-1] > p[0]

    def test_deterministic(self, small_universe):
        a = panel_precision_scan(
            small_universe, 0.2, SeededStream(23), sizes=[2, 5], samples_per_size=50
        )
        b = panel_precision_scan(
            small_universe, 0.2, SeededStream(23), sizes=[2, 5], samples_per_size=50
        )
        assert a.tobytes() == b.tobytes()

    def test_size_bounds_checked(self, small_universe):
        class NoDraw:
            def generator(self):
                raise AssertionError("the scan drew before checking its sizes")

        cases = [
            ([0], "panel sizes must be a non-empty"),
            ([21], "panel sizes must be a non-empty"),
            ([], "panel sizes must be a non-empty"),
            ([1], "fitting b needs a panel size above 1"),
            # the panels are nested: [5, 2] would report size 5's precision
            # for size 2, and [2, 2] one estimate twice
            ([5, 2], re.escape("panel sizes [5, 2] must be strictly increasing")),
            ([2, 2], re.escape("panel sizes [2, 2] must be strictly increasing")),
        ]
        for sizes, message in cases:
            with pytest.raises(DomainError, match=message):
                panel_precision_scan(small_universe, 0.2, NoDraw(), sizes=sizes, samples_per_size=10)


def argsort_scan(scores, q, stream, sizes, samples):
    """The scan as one stable argsort of the whole m x samples matrix of
    panel sums per size, each sample's panel the first k scorers of its
    ordering, summed in pick order."""
    m, n = scores.shape
    ksel = top_count(q, m)
    true_mask = stable_rank(scores.mean(axis=1)) <= ksel
    order = stream.generator().permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
    total = np.zeros((m, samples))
    avg = []
    added = 0
    for k in sizes:
        for j in range(added, k):
            total = total + scores[:, order[:, j]]
        added = k
        top = np.argsort(-total, axis=0, kind="stable")[:ksel]
        avg.append(true_mask[top].sum() / (ksel * samples))
    return np.array(avg)


@pytest.fixture(scope="module")
def rounded_universe(small_universe):
    """small_universe rounded to one decimal, so panel estimates tie heavily."""
    return np.round(small_universe, 1)


class TestScanMatchesArgsort:
    @pytest.mark.parametrize(
        "samples",
        [
            1,
            simulate._SCAN_BLOCK - 1,
            simulate._SCAN_BLOCK,
            simulate._SCAN_BLOCK + 1,
            2 * simulate._SCAN_BLOCK + 3,
        ],
    )
    def test_bit_identical(self, rounded_universe, samples):
        sizes = [1, 2, 5, 19, 20]
        avg = panel_precision_scan(rounded_universe, 0.2, SeededStream(24), sizes, samples)
        expected = argsort_scan(rounded_universe, 0.2, SeededStream(24), sizes, samples)
        assert avg.tobytes() == expected.tobytes()

    def test_gapped_sizes(self, rounded_universe):
        sizes, samples = [3, 7, 18], simulate._SCAN_BLOCK + 1
        avg = panel_precision_scan(rounded_universe, 0.2, SeededStream(27), sizes, samples)
        expected = argsort_scan(rounded_universe, 0.2, SeededStream(27), sizes, samples)
        assert avg.tobytes() == expected.tobytes()

    def test_integer_scores_tie_their_sums(self, small_universe):
        """Integer scores give exactly tied panel sums, so many rows' ties
        straddle the cut, and the truth-first layout puts a truth candidate
        ahead of non-truth candidates with lower indices."""
        scores = np.round(small_universe * 2.0)
        sizes, samples = [1, 2, 3, 6, 20], simulate._SCAN_BLOCK + 9
        for q in (0.05, 0.2, 0.5):
            avg = panel_precision_scan(scores, q, SeededStream(29), sizes, samples)
            expected = argsort_scan(scores, q, SeededStream(29), sizes, samples)
            assert avg.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [1, 7, "samples"])
    def test_block_width_never_changes_bytes(self, rounded_universe, monkeypatch, block):
        sizes, samples = [1, 2, 5, 19, 20], 2 * simulate._SCAN_BLOCK + 3
        expected = panel_precision_scan(rounded_universe, 0.2, SeededStream(28), sizes, samples)
        monkeypatch.setattr(simulate, "_SCAN_BLOCK", samples if block == "samples" else block)
        avg = panel_precision_scan(rounded_universe, 0.2, SeededStream(28), sizes, samples)
        assert avg.tobytes() == expected.tobytes()


def test_scan_matches_argsort_at_benchmark_shape():
    """The scan against the argsort reference on a 2000 x 100 universe,
    over blocks and a tail. Rounded scores tie heavily, so a last-bit
    change in the sums moves some top sets."""
    paper = generate_universe(0.5, **PAPER, stream=SeededStream(25))
    scores = np.round(paper, 1)
    sizes = [1, 2, 5, 10, 30]
    samples = 3 * simulate._SCAN_BLOCK + 5
    avg = panel_precision_scan(scores, 0.2, SeededStream(26), sizes, samples)
    expected = argsort_scan(scores, 0.2, SeededStream(26), sizes, samples)
    assert avg.tobytes() == expected.tobytes()


def test_scan_memory_does_not_grow_with_samples():
    """The scan draws each block's orderings as the block starts, so its
    traced peak at paper shape is the same for one block and for 4,000
    samples: no array of all samples' orderings is held."""
    scores = generate_universe(0.5, **PAPER, stream=SeededStream(30))
    peaks = []
    for samples in (simulate._SCAN_BLOCK, 4000):
        tracemalloc.start()
        try:
            panel_precision_scan(scores, 0.2, SeededStream(31), [1, 2], samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


class TestFitExponentB:
    def _law(self, k, b, rho, q):
        nb = k**b
        return (nb * rho + q * (1 - rho)) / (1 + (nb - 1) * rho)

    def test_roundtrip_recovery(self):
        sizes = np.arange(1, 31)
        for b_true in (0.3, 0.7, 1.2):
            p = self._law(sizes.astype(float), b_true, 0.5, 0.2)
            assert fit_exponent_b(sizes, p, 0.5, 0.2) == pytest.approx(b_true, abs=1e-3)

    def test_flat_precisions_drive_b_to_floor(self):
        sizes = np.arange(1, 31)
        p = np.full(sizes.size, 0.5 + 0.2 * (1 - 0.5))
        assert fit_exponent_b(sizes, p, 0.5, 0.2) < 0.05

    def test_misaligned_rejected(self):
        with pytest.raises(DomainError):
            fit_exponent_b([1, 2, 3], [0.5, 0.6], 0.5, 0.2)

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            fit_exponent_b([1, 2], [0.5, 0.6], 1.0, 0.2)

    @pytest.mark.parametrize("sizes", [[1], [1, 1, 1], []])
    def test_no_size_above_one_rejected(self, sizes):
        # at n = 1 the law does not depend on b: the search would drift to 1.5
        p = [0.7] * len(sizes)
        with pytest.raises(DomainError, match="fitting b needs a panel size above 1"):
            fit_exponent_b(sizes, p, 0.5, 0.2)

    def test_q_one_rejected(self):
        # at q = 1 every panel's precision is 1 whatever b is
        with pytest.raises(DomainError, match="fitting b needs q below 1"):
            fit_exponent_b([1, 2, 3], [1.0, 1.0, 1.0], 0.5, q=1.0)


class TestBGridScan:
    # panel sizes 1..8 of 120 samples each
    SCAN = ScanPreset(**SMALL, samples_per_size=120, max_size=8)

    def _scan(self, threads):
        return b_grid_scan([0.1, 0.2], [0.4, 0.6], self.SCAN, base_seed=77, threads=threads)

    def test_row_layout(self):
        rows = self._scan(1)
        assert [(r.q, r.target_rho) for r in rows] == [
            (0.1, 0.4),
            (0.1, 0.6),
            (0.2, 0.4),
            (0.2, 0.6),
        ]

    def test_identical_across_runs_and_threads(self):
        assert self._scan(1) == self._scan(1)
        assert self._scan(1) == self._scan(4)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            b_grid_scan([], [0.5], self.SCAN, 0)

    def test_cells_use_their_derived_streams(self):
        """Cell i = i_q * len(rho) + i_rho draws its universe from
        root.derive(i).derive(0) and its panels from root.derive(i).derive(1)."""
        q_values, rhos = [0.1, 0.2], [0.4, 0.6]
        scan = ScanPreset(n_ais=12, m_candidates=300, samples_per_size=70, max_size=5)
        rows = b_grid_scan(q_values, rhos, scan, base_seed=5, boost=0.5)
        root = SeededStream(5)
        expected = []
        for i_q, q in enumerate(q_values):
            for i_r, rho in enumerate(rhos):
                cell = root.derive(i_q * len(rhos) + i_r)
                scores = generate_universe(rho, 12, 300, cell.derive(0), boost=0.5)
                avg = panel_precision_scan(scores, q, cell.derive(1), range(1, 6), 70)
                measured = mean_correlation(scores)
                best_b = fit_exponent_b(range(1, 6), avg, measured, q)
                expected.append(BGridRow(q, rho, measured, best_b))
        assert rows == expected

    def test_no_correlation_matrix(self, monkeypatch):
        """A cell measures rho from row sums: np.corrcoef and np.cov, the
        only BLAS-backed correlation calls, are never made."""
        def no_matrix(*args, **kwargs):
            raise AssertionError("a correlation matrix was built")

        monkeypatch.setattr(np, "corrcoef", no_matrix)
        monkeypatch.setattr(np, "cov", no_matrix)
        rows = b_grid_scan([0.2], [0.4, 0.6], self.SCAN, base_seed=78, threads=2)
        assert [0.0 < row.measured_rho < 1.0 for row in rows] == [True, True]

    def test_measured_rho_outside_unit_interval_named(self, monkeypatch):
        # three scorers over six candidates measure -0.0303 at a target of 0.01
        def no_fit(*args):
            raise AssertionError("b was fitted")

        monkeypatch.setattr(simulate, "fit_exponent_b", no_fit)
        message = (r"^cell q=0\.3, target rho 0\.01: measured rho -0\.0302\d* lies "
                   r"outside \(0, 1\), so b cannot be fitted$")
        with pytest.raises(DomainError, match=message):
            b_grid_scan([0.3], [0.01, 0.02], ScanPreset(3, 6, 3, 3), 1)


class TestRegressBOnRho:
    def test_exact_line(self):
        rows = [
            BGridRow(q=0.2, target_rho=r, measured_rho=r, best_b=1.0 - 0.8 * r)
            for r in (0.3, 0.5, 0.7, 0.9)
        ]
        reg = regress_b_on_rho(rows)
        assert reg.slope == pytest.approx(-0.8, abs=1e-12)
        assert reg.intercept == pytest.approx(1.0, abs=1e-12)
        assert reg.r_squared == pytest.approx(1.0)

    def test_two_points_fit_perfectly(self):
        rows = [
            BGridRow(q=0.1, target_rho=0.3, measured_rho=0.3, best_b=0.9),
            BGridRow(q=0.1, target_rho=0.7, measured_rho=0.7, best_b=0.5),
        ]
        assert regress_b_on_rho(rows).r_squared == pytest.approx(1.0)

    def test_equal_b_rejected(self):
        # every cell's b at the bracket's end: R^2 is 0/0, not a perfect fit
        rows = [
            BGridRow(q=0.2, target_rho=r, measured_rho=r, best_b=1.5)
            for r in (0.01, 0.02)
        ]
        with pytest.raises(DomainError, match=re.escape("fitted b values are all equal")):
            regress_b_on_rho(rows)

    def test_degenerate_spread_rejected(self):
        rows = [
            BGridRow(q=0.2, target_rho=0.5, measured_rho=0.5, best_b=0.6),
            BGridRow(q=0.2, target_rho=0.5, measured_rho=0.5, best_b=0.7),
        ]
        with pytest.raises(DomainError):
            regress_b_on_rho(rows)

    def test_mixed_q_rejected(self):
        rows = [
            BGridRow(q=0.1, target_rho=0.3, measured_rho=0.3, best_b=0.9),
            BGridRow(q=0.2, target_rho=0.7, measured_rho=0.7, best_b=0.5),
        ]
        with pytest.raises(DomainError):
            regress_b_on_rho(rows)


class TestSimulateDistributionCurve:
    @pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
    def test_matches_per_trial_precision_curves(self, kind):
        """The hoisted grid sizes give the average of the per-trial
        precision_curve values bit for bit; at m = 10 a 50-point grid
        holds each size several times."""
        m, rho, trials = 10, 0.6, 7
        grid = log_q_grid(m, 50)
        assert np.unique(top_count(grid, m)).size < grid.size
        stream = SeededStream(11).derive(3)
        totals = np.zeros(grid.size)
        for trial in range(trials):
            nu = sample_signal(kind, m, stream.derive(0).derive(trial).generator())
            x = add_calibrated_noise(nu, rho, stream.derive(1).derive(trial).generator())
            totals += precision_curve(x, nu, grid)
        got = simulate_distribution_curve(kind, 4.0, m, rho, trials, grid, stream)
        assert got.tobytes() == (totals / trials).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(DomainError, match="^trials must be at least 1$"):
            simulate_distribution_curve(
                "normal", 4.0, 10, 0.6, trials, log_q_grid(10, 5), SeededStream(0)
            )
