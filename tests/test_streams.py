import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelmetrics.errors import DomainError
from panelmetrics.streams import (
    DISTRIBUTION_KINDS,
    SeededStream,
    add_calibrated_noise,
    correlation_summary,
    mean_correlation,
    sample_signal,
    standardize,
    superstar_transform,
)


class TestSeededStream:
    def test_same_stream_same_draws(self):
        s = SeededStream(42, 7)
        a = s.generator().standard_normal(100)
        b = s.generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededStream(42, 0).generator().standard_normal(50)
        b = SeededStream(42, 1).generator().standard_normal(50)
        c = SeededStream(43, 0).generator().standard_normal(50)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_is_pure(self):
        s = SeededStream(5)
        assert s.derive(3) == s.derive(3)
        assert s.derive(3) != s.derive(4)

    def test_derive_children_do_not_collide(self):
        root = SeededStream(0)
        ids = {root.derive(i).stream_id for i in range(5000)}
        assert len(ids) == 5000
        # grandchildren of different children stay distinct too
        grand = {root.derive(i).derive(j).stream_id for i in range(50) for j in range(50)}
        assert len(grand) == 2500

    def test_negative_child_rejected(self):
        with pytest.raises(DomainError):
            SeededStream(0).derive(-1)

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (5, 2**64 - 1), (2**64 - 3, 2**63 + 7)])
    def test_key_is_seed_low_and_stream_id_high(self, seed, stream_id):
        # both words exact, also above 2**53 where a float would round them
        key = seed | stream_id << 64
        expected = np.random.Generator(np.random.Philox(key=key)).integers(0, 2**64, 4, np.uint64)
        got = SeededStream(seed, stream_id).generator().integers(0, 2**64, 4, np.uint64)
        assert got.tobytes() == expected.tobytes()


# one draw per child from each sampler; 32-bit integers use the cached
# half of a 64-bit output (has_uint32 / uinteger), which a child must reset
CHILD_DRAWS = {
    "standard_normal": lambda g: g.standard_normal(3),
    "lognormal": lambda g: g.lognormal(0.0, 1.0, 3),
    "pareto": lambda g: g.pareto(3.0, 3),
    "standard_t": lambda g: g.standard_t(2.5, 3),
    "uint32": lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
}


class TestChildren:
    @pytest.mark.parametrize("draw", CHILD_DRAWS.values(), ids=CHILD_DRAWS.keys())
    def test_each_child_is_its_derived_stream(self, draw):
        root = SeededStream(2**64 - 3, 11).derive(5)
        count = 2000
        got = [draw(g) for g in root.children(count)]
        assert len(got) == count
        for child, draws in enumerate(got):
            assert draws.tobytes() == draw(root.derive(child).generator()).tobytes()

    def test_half_used_child_does_not_leak(self):
        # an odd count of 32-bit draws leaves half a 64-bit output cached and
        # part of Philox's 4-word buffer unread; the next child starts past both
        root = SeededStream(8)
        children = root.children(3)
        next(children).integers(0, 2**32, 1, dtype=np.uint32)
        second = next(children)
        assert second.integers(0, 2**32, 5, dtype=np.uint32).tobytes() == (
            root.derive(1).generator().integers(0, 2**32, 5, dtype=np.uint32).tobytes()
        )
        third = next(children)
        assert third.standard_normal(4).tobytes() == (
            root.derive(2).generator().standard_normal(4).tobytes()
        )

    def test_zero_children(self):
        assert list(SeededStream(0).children(0)) == []


def philox_constructions(path):
    """Lines of ``path`` that call ``Philox``, as ``np.random.Philox`` or bare."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Philox"
    ]


def test_philox_is_built_only_in_streams():
    """Only ``streams`` builds a Philox, so its key layout has one home."""
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src").rglob("*.py")) + sorted((root / "tools").rglob("*.py"))
    found = {
        str(path.relative_to(root)): lines
        for path in sources if (lines := philox_constructions(path))
    }
    assert set(found) == {"src/panelmetrics/streams.py"}, found


class TestSampleSignal:
    def test_kinds_accepted(self):
        for kind in DISTRIBUTION_KINDS:
            assert sample_signal(kind, 8, SeededStream(0).generator()).shape == (8,)

    def test_unknown_kind_rejected(self):
        message = ("unknown distribution kind 'cauchy'; expected one of "
                   "('normal', 'lognormal', 'pareto', 'student_t')")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sample_signal("cauchy", 8, SeededStream(0).generator())

    def test_infinite_variance_parameters_rejected(self):
        # t_dof is checked whatever the kind
        for kind in DISTRIBUTION_KINDS:
            with pytest.raises(DomainError, match=r"^t_dof must exceed 2 \(finite variance\)$"):
                sample_signal(kind, 8, SeededStream(0).generator(), t_dof=1.5)

    def test_deterministic(self):
        s = SeededStream(9, 2)
        assert np.array_equal(sample_signal("lognormal", 64, s.generator()),
                              sample_signal("lognormal", 64, s.generator()))

    def test_pareto_support_starts_at_one(self):
        draws = sample_signal("pareto", 20000, SeededStream(1).generator())
        assert draws.min() >= 1.0

    def test_pareto_mean_matches_classical_form(self):
        # shape 3 classical Pareto has mean shape/(shape-1) = 1.5
        draws = sample_signal("pareto", 200000, SeededStream(2).generator())
        assert draws.mean() == pytest.approx(1.5, abs=0.02)

    def test_lognormal_median(self):
        draws = sample_signal("lognormal", 100000, SeededStream(3).generator())
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_student_t_fractional_dof(self):
        draws = sample_signal("student_t", 1000, SeededStream(4).generator(), t_dof=2.5)
        assert draws.shape == (1000,)
        assert np.isfinite(draws).all()

    def test_needs_two_draws(self):
        with pytest.raises(DomainError):
            sample_signal("normal", 1, SeededStream(0).generator())


class TestAddCalibratedNoise:
    def test_achieves_target_correlation(self):
        nu = sample_signal("normal", 100000, SeededStream(11).generator())
        for rho in (0.3, 0.7, 0.95):
            x = add_calibrated_noise(nu, rho, SeededStream(12).generator())
            assert np.corrcoef(nu, x)[0, 1] == pytest.approx(rho, abs=0.01)

    def test_calibration_is_scale_free(self):
        nu = sample_signal("lognormal", 50000, SeededStream(13).generator())
        x_base = add_calibrated_noise(nu, 0.6, SeededStream(14).generator())
        x_scaled = add_calibrated_noise(nu * 37.0, 0.6, SeededStream(14).generator())
        assert np.allclose(x_scaled, x_base * 37.0)

    def test_high_rho_limit_shrinks_noise(self):
        nu = sample_signal("normal", 1000, SeededStream(15).generator())
        x = add_calibrated_noise(nu, 0.999999, SeededStream(16).generator())
        assert np.max(np.abs(x - nu)) < 0.05

    def test_domain(self):
        nu = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            add_calibrated_noise(nu, 0.0, SeededStream(0).generator())
        with pytest.raises(DomainError):
            add_calibrated_noise(nu, 1.0, SeededStream(0).generator())
        with pytest.raises(DomainError):
            add_calibrated_noise(np.ones(10), 0.5, SeededStream(0).generator())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho", [5e-324, 1e-300, 1e-160])
    def test_rho_whose_noise_sd_overflows_rejected(self, rho):
        nu = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="too small to calibrate noise"):
            add_calibrated_noise(nu, rho, SeededStream(0).generator())


class TestSuperstarTransform:
    def test_zero_boost_is_identity_copy(self):
        z = np.linspace(-3, 3, 7)
        out = superstar_transform(z, 0.0)
        assert np.array_equal(out, z)
        assert out is not z

    def test_boost_only_lifts(self):
        z = np.linspace(-4, 6, 101)
        out = superstar_transform(z, 2.0)
        assert np.all(out >= z)

    def test_boost_concentrates_above_kink(self):
        below = superstar_transform(np.array([-2.0]), 1.0)[0] - (-2.0)
        above = superstar_transform(np.array([4.0]), 1.0)[0] - 4.0
        assert below < 0.01
        # well above the kink the lift approaches boost * (z - kink)
        assert above == pytest.approx(1.0 * (4.0 - 1.6), abs=0.01)

    def test_monotone(self):
        z = np.linspace(-5, 8, 400)
        out = superstar_transform(z, 3.0)
        assert np.all(np.diff(out) > 0)

    def test_no_overflow_far_out(self):
        out = superstar_transform(np.array([500.0]), 1.0)
        assert np.isfinite(out).all()


class TestStandardize:
    def test_population_moments(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        out = standardize(x)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        # population divisor: mean of squares is exactly 1
        assert (out**2).mean() == pytest.approx(1.0)

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            standardize(np.full(5, 3.3))

    def test_columns_standardized_separately(self):
        g = SeededStream(12).generator()
        x = g.standard_normal((200, 3)) * [1.0, 5.0, 0.1] + [0.0, 7.0, -3.0]
        out = standardize(x)
        assert out.shape == x.shape
        assert out.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-12)
        assert out.std(axis=0) == pytest.approx(np.ones(3))

    def test_one_constant_column_rejected(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 3.3), np.arange(5.0) ** 2])
        with pytest.raises(DomainError):
            standardize(x)

    # the repeated 7.3 gets a computed sd of 8.9e-16, not 0, and once
    # standardized to seven 1.0s; the 1e200 spread's squares overflow, and
    # it once standardized to zeros
    @pytest.mark.parametrize(
        "column, message",
        [
            (np.full(7, 7.3), "cannot standardize a constant column"),
            (np.arange(7.0) * 1e200, "column sd is not finite"),
        ],
        ids=["repeated-value", "overflowing-spread"],
    )
    def test_degenerate_column_rejected(self, column, message):
        x = np.column_stack([np.arange(7.0), column])
        with np.errstate(all="raise"), pytest.raises(DomainError, match=message):
            standardize(x)
        with np.errstate(all="raise"), pytest.raises(DomainError, match=message):
            standardize(column)


@st.composite
def correlated_matrices(draw):
    """An m x n matrix of independent, equicorrelated or alternately
    signed columns (every other column loads negatively on the common
    factor), shifted and scaled."""
    m, n = draw(st.integers(3, 60)), draw(st.integers(2, 8))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = draw(st.floats(0.0, 1.0))
    loading = {
        "independent": np.zeros(n),
        "equicorrelated": np.full(n, np.sqrt(rho)),
        "alternating": np.sqrt(rho) * (-1.0) ** np.arange(n),
    }[draw(st.sampled_from(["independent", "equicorrelated", "alternating"]))]
    cols = g.standard_normal(m)[:, None] * loading + np.sqrt(1.0 - loading**2) * g.standard_normal(
        (m, n)
    )
    return draw(st.floats(-1e4, 1e4)) + draw(st.floats(1e-3, 1e3)) * cols


class TestMeanCorrelation:
    """mean_correlation against the mean off-diagonal entry of np.corrcoef."""

    @settings(max_examples=300)
    @given(mat=correlated_matrices())
    @example(mat=np.column_stack([np.arange(6.0), np.arange(6.0)]))
    @example(mat=np.column_stack([np.arange(6.0), -np.arange(6.0)]))
    @example(mat=np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]))
    @example(mat=np.tile([[0.1], [0.1], [0.1], [0.2]], 3))
    @example(mat=np.column_stack([np.arange(6.0), np.full(6, 7.3)]))
    @example(mat=np.random.default_rng(3).standard_normal((40, 3)) * 1e-300)
    @example(mat=np.random.default_rng(3).standard_normal((40, 3)) * 1e200)
    def test_matches_correlation_matrix(self, mat):
        """Equal within a few ulps times n, or the same DomainError."""
        n = mat.shape[1]
        try:
            expected = correlation_summary(mat)[1]
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                mean_correlation(mat)
            return
        got = mean_correlation(mat)
        assert abs(got - expected) <= 8 * n * np.finfo(float).eps
        assert -1.0 / (n - 1) <= got <= 1.0

    @pytest.mark.parametrize(
        "mat, expected",
        [
            (np.column_stack([np.arange(6.0), np.arange(6.0)]), 1.0),
            (np.column_stack([np.arange(6.0) * 0.1, np.arange(6.0) * 0.1]), 1.0),
            (np.column_stack([np.arange(6.0), -np.arange(6.0)]), -1.0),
            (np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]), 0.0),
            # three identical columns sum to 1 + 2 ulps before the clip
            (np.tile([[0.1], [0.1], [0.1], [0.2]], 3), 1.0),
        ],
        ids=["identical", "identical-inexact", "opposite", "uncorrelated", "three-identical"],
    )
    def test_edge_cases_are_exact(self, mat, expected):
        assert mean_correlation(mat) == expected

    # the scaled matrices have a spread whose squares underflow or overflow
    @pytest.mark.parametrize(
        "scale, column, message",
        [
            (1.0, np.full(40, 7.3), "constant column has undefined correlation"),
            (1e-300, None, "scores too small in scale for their spread to be represented"),
            (1e200, None, "column sd is not finite"),
        ],
        ids=["constant-column", "scaled-1e-300", "scaled-1e200"],
    )
    def test_degenerate_scores_rejected(self, scale, column, message):
        mat = np.random.default_rng(3).standard_normal((40, 3)) * scale
        if column is not None:
            mat[:, 1] = column
        for measure in (mean_correlation, lambda x: correlation_summary(x)[1]):
            with np.errstate(all="raise"), pytest.raises(DomainError, match=f"^{message}"):
                measure(mat)

    @pytest.mark.parametrize("shape", [(5,), (5, 1), (2, 3, 4)])
    def test_needs_a_matrix_of_two_columns(self, shape):
        with pytest.raises(DomainError, match="need a 2-d matrix with at least 2 columns"):
            mean_correlation(np.arange(float(np.prod(shape))).reshape(shape))
