import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelmetrics import precision
from panelmetrics.errors import DomainError
from panelmetrics.precision import (
    generalized_precision,
    log_q_grid,
    precision_at_q,
    precision_curve,
    stable_rank,
    top_count,
    top_hits,
)
from panelmetrics.streams import SeededStream

score_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=60,
).map(lambda xs: np.array(xs))

distinct_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=60,
    unique=True,
).map(lambda xs: np.array(xs))


@st.composite
def tied_pairs(draw):
    """Two equal-length vectors rounded to one decimal, so ties are heavy."""
    m = draw(st.integers(2, 40))
    cells = st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)
    return np.round(np.array(draw(cells)), 1), np.round(np.array(draw(cells)), 1)


def top_indices(scores, k):
    """Reference top-k set: indices of a stable sort on the negated scores."""
    return np.sort(np.argsort(-np.asarray(scores, dtype=float), kind="stable")[:k])


def reference_overlap(x, v, k_x, k_v):
    """Size of the intersection of the two reference top sets."""
    return np.intersect1d(
        top_indices(x, k_x), top_indices(v, k_v), assume_unique=True
    ).size


@st.composite
def tied_blocks(draw):
    """An m x B block rounded to one decimal, in C or F order, a k and a
    truth mask of k candidates; B = 1 is drawn often. top_hits takes the
    block's B x m transpose, laid out truth first."""
    m = draw(st.integers(1, 30))
    b = draw(st.just(1) | st.integers(1, 8))
    cells = st.lists(st.floats(-1.0, 1.0), min_size=m * b, max_size=m * b)
    est = np.round(np.array(draw(cells)).reshape(m, b), 1)
    if draw(st.booleans()):
        est = np.asfortranarray(est)
    k = draw(st.integers(1, m))
    truth = np.zeros(m, dtype=bool)
    truth[draw(st.permutations(range(m)))[:k]] = True
    return est, truth, k


def reference_hits(est, truth, k):
    """Truth rows in each column's top k, from a stable argsort of the column."""
    top = np.argsort(-est, axis=0, kind="stable")[:k]
    return truth[top].sum(axis=0)


def truth_first(truth):
    """Candidate index of the truth-first layout: the truth's candidates,
    then the rest, each part in candidate order."""
    return np.concatenate([np.flatnonzero(truth), np.flatnonzero(~truth)])


class TestTopHits:
    """top_hits counts B x m sample rows laid out truth first; each test
    builds m x B columns in candidate order, which ``reference_hits``
    ranks, and passes their transpose in that layout."""

    @settings(max_examples=300)
    @given(block=tied_blocks())
    @example(
        block=(
            np.array([[0.0, -0.0], [-0.0, 5e-324], [5e-324, 0.0], [0.0, -0.0]]),
            np.array([False, True, False, True]),
            2,
        )
    )
    @example(
        # three candidates tie at the boundary for two free slots, and the
        # layout puts truth candidates 2 and 3 ahead of candidate 1
        block=(
            np.array([[2.0], [1.0], [1.0], [1.0], [0.0]]),
            np.array([False, False, True, True, True]),
            3,
        )
    )
    def test_matches_stable_argsort(self, block):
        est, truth, k = block
        before = est.tobytes()
        index = truth_first(truth)
        rows = est.T[:, index]
        assert top_hits(rows, k, index) == reference_hits(est, truth, k).sum()
        for j in range(est.shape[1]):
            assert top_hits(rows[j : j + 1], k, index) == reference_hits(est[:, j : j + 1], truth, k)
        assert est.tobytes() == before

    def test_tie_goes_to_the_lower_candidate_not_the_first_column(self):
        """Candidates 0 and 2 tie for the second slot. The layout puts truth
        candidate 2 in column 0, ahead of candidate 0 in column 2; the slot
        is candidate 0's, so the row holds no truth candidate. Ranking the
        row by column position would count one."""
        est = np.array([[3.0], [5.0], [3.0], [0.0]])
        truth = np.array([False, False, True, True])
        index = truth_first(truth)
        assert list(index) == [2, 3, 0, 1]
        assert reference_hits(est, truth, 2).tolist() == [0]
        assert top_hits(est.T[:, index], 2, index) == 0

    @pytest.mark.parametrize(
        "layout",
        ["C-order column slice", "F-order block", "C-order single column",
         "F-order single column"],
    )
    def test_scan_block_views(self, layout):
        """The row views a caller can pass, as transposes of m x B blocks in
        the identity layout: a column slice of a wider C-order matrix gives
        strided rows, an F-order block gives C-contiguous rows (the scan's
        running sums), and a single column gives one row, strided or
        contiguous (B = 1, the tail of a scan whose sample count is one more
        than a multiple of the block width)."""
        wide = np.round(np.random.default_rng(7).uniform(-1.0, 1.0, (5, 12)), 1)
        wide[:, 6] = [2.0, 1.0, 1.0, 1.0, 0.0]  # three rows tie for two slots at k = 3
        block = wide[:, 6:7] if layout.endswith("single column") else wide[:, 4:10]
        if layout.startswith("F-order"):
            block = np.asfortranarray(block)
            assert block.T.flags.c_contiguous
        else:
            assert not block.T.flags.c_contiguous
        for k in range(1, 6):
            truth = np.arange(5) < k
            assert top_hits(block.T, k, np.arange(5)) == reference_hits(block, truth, k).sum()

    @pytest.mark.parametrize(
        "layout", ["C-contiguous block", "C-order column slice", "F-order block",
                   "single column"],
    )
    def test_leaves_its_input_unchanged(self, layout):
        """top_hits partitions in place, so it must do so on its own copy:
        ``np.ascontiguousarray`` of a C-contiguous block of rows, such as
        the transpose of an F-order block, is the block itself, and
        partitioning it would scramble the caller's estimates."""
        wide = np.random.default_rng(11).standard_normal((300, 40))
        block = {
            "C-contiguous block": wide,
            "C-order column slice": wide[:, 3:29],
            "F-order block": np.asfortranarray(wide[:, 3:29]),
            "single column": wide[:, 5:6],
        }[layout]
        before, wide_before = block.tobytes(), wide.tobytes()
        for k in (1, 60, 299, 300):
            top_hits(block.T, k, np.arange(300))
            assert block.tobytes() == before and wide.tobytes() == wide_before

    @pytest.mark.parametrize(
        "column",
        [[np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [np.nan, np.nan, 2.0], [np.nan] * 3],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nan_rejected(self, column, k):
        # stable_rank puts NaN last, so the top 2 of [nan, 1, 2] hold row 1;
        # counting from the partition alone returned 0 for that column
        est = np.column_stack([[0.0, 1.0, 2.0], column]).T
        with pytest.raises(DomainError, match="NaN"):
            top_hits(est, k, np.arange(3))

    def test_domain(self):
        est = np.zeros((2, 4))
        with pytest.raises(DomainError):
            top_hits(est, 0, np.arange(4))
        with pytest.raises(DomainError):
            top_hits(est, 5, np.arange(4))
        with pytest.raises(DomainError):
            top_hits(est, 2, np.arange(3))
        with pytest.raises(DomainError):
            top_hits(np.zeros(4), 2, np.arange(4))


class TestTopCount:
    def test_floor_at_one(self):
        assert top_count(0.001, 100) == 1

    def test_rounds_half_away_from_zero(self):
        # 0.25 * 10 = 2.5 must select 3, not banker's 2
        assert top_count(0.25, 10) == 3
        assert top_count(0.35, 10) == 4
        assert list(top_count(np.array([0.05, 0.25, 0.35, 1.0]), 10)) == [1, 3, 4, 10]

    def test_full_selection(self):
        assert top_count(1.0, 17) == 17

    def test_domain(self):
        with pytest.raises(DomainError):
            top_count(0.0, 10)
        with pytest.raises(DomainError):
            top_count(1.1, 10)
        with pytest.raises(DomainError):
            top_count(0.5, 0)


def top_slice(scores, k):
    return list(np.flatnonzero(stable_rank(scores) <= k))


class TestStableRank:
    def test_single_winner(self):
        assert top_slice(np.array([5, 1, 9]), 1) == [2]

    def test_tie_breaks_to_lower_index(self):
        assert top_slice(np.array([7, 7, 1]), 1) == [0]
        assert top_slice(np.array([3, 7, 7, 7]), 2) == [1, 2]

    def test_full_set(self):
        assert top_slice(np.array([2.0, 1.0, 3.0]), 3) == [0, 1, 2]

    @settings(max_examples=300)
    @given(
        x=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(-3.0, 3.0).map(lambda f: round(f, 1)),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0]),
            ),
            max_size=400,
        ).map(lambda xs: np.array(xs, dtype=float))
    )
    @example(x=np.full(50, 2.5))
    @example(x=np.array([1.0, math.nan, math.nan, 3.0, math.nan, -1.0, math.nan]))
    @example(x=np.array([0.0, -0.0, 0.0]))
    @example(x=np.array([]))
    def test_matches_stable_argsort_ranks(self, x):
        """The default-argsort kernel with its tie fix-up ranks exactly like
        a stable sort of the negated scores, NaN, infinities and signed
        zeros included."""
        expected = np.empty(x.size, dtype=np.int64)
        expected[np.argsort(-x, kind="stable")] = np.arange(1, x.size + 1)
        assert np.array_equal(stable_rank(x), expected)


class TestKernelMatchesSetIntersection:
    """Every precision function against a top-set intersection reference."""

    @settings(max_examples=200)
    @given(pair=tied_pairs(), h=st.floats(0.01, 1.0), q=st.floats(0.01, 1.0))
    @example(
        pair=(
            np.array([0.0, -0.0, 5e-324, -5e-324, 0.0, -5e-324]),
            np.array([-0.0, 5e-324, 0.0, 0.0, -5e-324, -0.0]),
        ),
        h=0.5,
        q=0.34,
    )
    def test_all_three_functions(self, pair, h, q):
        x, v = pair
        m = x.size
        k_h, k_q = top_count(h, m), top_count(q, m)
        assert precision_at_q(x, v, q) == reference_overlap(x, v, k_q, k_q) / k_q
        assert (
            generalized_precision(h, q, x, v)
            == reference_overlap(x, v, k_q, k_h) / k_h
        )
        grid = log_q_grid(m, 7)
        expected = [
            reference_overlap(x, v, top_count(g, m), top_count(g, m)) / top_count(g, m)
            for g in grid
        ]
        assert list(precision_curve(x, v, grid)) == expected


class TestPrecisionAtQ:
    def test_self_agreement(self):
        x = np.array([0.3, -2.0, 4.0, 4.0, 1.0])
        for q in (0.2, 0.5, 1.0):
            assert precision_at_q(x, x, q) == 1.0

    def test_disjoint_halves(self):
        x = np.array([4.0, 3.0, 2.0, 1.0])
        assert precision_at_q(x, -x, 0.5) == 0.0

    def test_coinciding_top_sets(self):
        # same top-2 membership, different order inside it
        assert precision_at_q(
            np.array([3.0, 2, 1, 0]), np.array([2.0, 3, 0, 1]), 0.5
        ) == 1.0

    def test_partial_overlap(self):
        # top-2 sets {0,1} vs {0,2} share one member
        assert precision_at_q(
            np.array([3.0, 2, 1, 0]), np.array([3.0, 1, 2, 0]), 0.5
        ) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            precision_at_q(np.ones(3), np.ones(4), 0.5)

    @given(x=score_vectors, q=st.floats(min_value=0.01, max_value=1.0))
    def test_fraction_range(self, x, q):
        v = x[::-1].copy()
        assert 0.0 <= precision_at_q(x, v, q) <= 1.0

    @given(x=distinct_vectors, q=st.floats(min_value=0.01, max_value=1.0), shift=st.integers(0, 59))
    def test_permutation_equivariance(self, x, q, shift):
        v = np.roll(x, 3)
        perm = np.roll(np.arange(x.size), shift)
        assert precision_at_q(x, v, q) == precision_at_q(x[perm], v[perm], q)

    @given(x=distinct_vectors, q=st.floats(min_value=0.01, max_value=1.0))
    @example(x=np.array([0.0, -5e-324]), q=0.5)
    def test_monotone_transform_invariance(self, x, q):
        # scaling up by a power of two is exact for finite values far from
        # overflow, so no two values can merge; scaling down is not (halving
        # -5e-324 gives -0.0, which ties with 0.0)
        v = np.roll(x, 1)
        assert precision_at_q(2.0 * x, 4.0 * v, q) == precision_at_q(x, v, q)

    def test_nonlinear_monotone_invariance(self):
        g = SeededStream(21).generator()
        x = g.uniform(-5, 5, 300)
        v = g.uniform(-5, 5, 300)
        for q in (0.05, 0.2, 0.6):
            assert precision_at_q(np.exp(x), np.arctan(v), q) == precision_at_q(
                x, v, q
            )

    def test_tiny_perturbation_keeps_precision_one(self):
        g = SeededStream(31).generator()
        v = np.sort(g.standard_normal(200))
        gap = np.diff(np.sort(v)).min()
        x = v + g.uniform(-0.4, 0.4, v.size) * gap
        for q in log_q_grid(v.size, 10):
            assert precision_at_q(x, v, q) == 1.0


class TestGeneralizedPrecision:
    def test_h_equals_q_reduces(self):
        g = SeededStream(5).generator()
        x = g.standard_normal(40)
        v = g.standard_normal(40)
        for q in (0.1, 0.3, 0.9):
            assert generalized_precision(q, q, x, v) == precision_at_q(x, v, q)

    def test_selecting_everything_captures_everything(self):
        g = SeededStream(6).generator()
        x = g.standard_normal(30)
        v = g.standard_normal(30)
        assert generalized_precision(0.2, 1.0, x, v) == 1.0

    def test_perfect_scorer_wide_selection(self):
        v = np.arange(40.0)
        assert generalized_precision(0.1, 0.25, v, v) == 1.0

    @given(
        x=distinct_vectors,
        h=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_upper_bound(self, x, h, q):
        v = np.roll(x, 2)
        m = x.size
        k_h = top_count(h, m)
        k_q = top_count(q, m)
        assert generalized_precision(h, q, x, v) <= min(1.0, k_q / k_h) + 1e-12


class TestLogQGrid:
    def test_two_point_grid(self):
        grid = log_q_grid(40, 2)
        assert grid[0] == 1 / 40
        assert grid[-1] == 1.0

    def test_default_endpoints_at_paper_size(self):
        grid = log_q_grid(2000, 50)
        assert grid.size == 50
        assert grid[0] == pytest.approx(0.0005)
        assert grid[-1] == 1.0

    def test_strictly_increasing(self):
        grid = log_q_grid(500, 50)
        assert np.all(np.diff(grid) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_q_grid(1, 10)
        with pytest.raises(DomainError):
            log_q_grid(100, 1)


class TestPrecisionCurve:
    def test_self_curve_is_ones(self):
        g = SeededStream(8).generator()
        x = g.standard_normal(100)
        curve = precision_curve(x, x, log_q_grid(100, 20))
        assert np.all(curve == 1.0)

    def test_value_at_q_one(self):
        g = SeededStream(9).generator()
        curve = precision_curve(
            g.standard_normal(60), g.standard_normal(60), np.array([0.5, 1.0])
        )
        assert curve[-1] == 1.0

    @settings(deadline=None)
    @given(seed=st.integers(0, 5))
    def test_independent_scores_land_near_q(self, seed):
        # overlap of two random 400-sets has sd ~0.018, so 0.05 is ~2.8 sigma
        g = SeededStream(seed, 77).generator()
        x = g.standard_normal(2000)
        v = g.standard_normal(2000)
        assert precision_at_q(x, v, 0.2) == pytest.approx(0.2, abs=0.05)

    def test_grid_validation(self):
        x = np.arange(5.0)
        with pytest.raises(DomainError, match="non-empty 1-d grid"):
            precision_curve(x, x, [])
        with pytest.raises(DomainError, match="non-empty 1-d grid"):
            precision_curve(x, x, [[0.2, 0.5]])
        with pytest.raises(DomainError, match="1-d vector"):
            precision_curve(x, np.column_stack([x, x]), [0.5])
        with pytest.raises(DomainError, match="as many rows"):
            precision_curve(np.arange(4.0), x, [0.5])
        with pytest.raises(DomainError, match="as many rows"):
            precision_curve(np.zeros((4, 2)), x, [0.5])
        with pytest.raises(DomainError, match="as many rows"):
            precision_curve(np.zeros((5, 2, 1)), x, [0.5])

    def test_grid_order_is_free(self):
        # each value depends on its own q only, so a descending grid is fine
        g = SeededStream(10).generator()
        x, v = g.standard_normal((2, 40))
        grid = log_q_grid(40, 9)
        assert np.array_equal(
            precision_curve(x, v, grid[::-1]), precision_curve(x, v, grid)[::-1]
        )

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5, np.nan])
    def test_q_outside_unit_interval(self, bad):
        with pytest.raises(DomainError, match=r"q must lie in \(0, 1\]"):
            precision_curve(np.arange(5.0), np.arange(5.0), [0.5, bad])

    def test_grid_counts_match_top_count(self):
        # q*m is 0.5, 2.5, 3.5 and 5.5 at m = 10: halves round away from zero
        g = SeededStream(3).generator()
        x, v = np.round(g.standard_normal((2, 10)), 1)
        grid = np.array([0.05, 0.25, 0.35, 0.55, 1.0])
        expected = [precision_at_q(x, v, q) for q in grid]
        assert list(precision_curve(x, v, grid)) == expected

    @settings(max_examples=200)
    @given(
        m=st.integers(1, 40),
        c=st.integers(1, 6),
        points=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_rows_equal_column_calls(self, m, c, points, seed):
        # scores rounded to one decimal tie heavily, in x and in v
        g = np.random.default_rng(seed)
        x = np.round(g.uniform(-2.0, 2.0, (m, c)), 1)
        v = np.round(g.uniform(-2.0, 2.0, m), 1)
        grid = np.sort(g.uniform(0.0, 1.0, points)) * (1.0 - 1.0 / m) + 1.0 / m
        got = precision_curve(x, v, grid)
        assert got.shape == (c, points)
        expected = np.array([precision_curve(col, v, grid) for col in x.T])
        assert got.tobytes() == expected.tobytes()

    def test_truth_ranked_once(self, monkeypatch):
        calls = {"stable_rank": 0, "top_count": 0}

        def counting(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(precision, "stable_rank", counting(stable_rank))
        monkeypatch.setattr(precision, "top_count", counting(top_count))
        g = SeededStream(12).generator()
        precision_curve(g.standard_normal((50, 7)), g.standard_normal(50), log_q_grid(50, 9))
        assert calls == {"stable_rank": 7 + 1, "top_count": 1}
