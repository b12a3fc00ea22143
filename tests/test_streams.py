import numpy as np
import pytest

from panelmetrics.errors import DomainError
from panelmetrics.streams import (
    DistributionSpec,
    SeededStream,
    add_calibrated_noise,
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


class TestDistributionSpec:
    def test_kinds_accepted(self):
        for kind in ("normal", "lognormal", "pareto", "student_t"):
            DistributionSpec(kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            DistributionSpec("cauchy")

    def test_infinite_variance_parameters_rejected(self):
        with pytest.raises(DomainError):
            DistributionSpec("student_t", t_dof=1.5)


class TestSampleSignal:
    def test_deterministic(self):
        spec = DistributionSpec("lognormal")
        s = SeededStream(9, 2)
        assert np.array_equal(sample_signal(spec, 64, s), sample_signal(spec, 64, s))

    def test_pareto_support_starts_at_one(self):
        draws = sample_signal(DistributionSpec("pareto"), 20000, SeededStream(1))
        assert draws.min() >= 1.0

    def test_pareto_mean_matches_classical_form(self):
        # shape 3 classical Pareto has mean shape/(shape-1) = 1.5
        draws = sample_signal(DistributionSpec("pareto"), 200000, SeededStream(2))
        assert draws.mean() == pytest.approx(1.5, abs=0.02)

    def test_lognormal_median(self):
        draws = sample_signal(DistributionSpec("lognormal"), 100000, SeededStream(3))
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_student_t_fractional_dof(self):
        draws = sample_signal(
            DistributionSpec("student_t", t_dof=2.5), 1000, SeededStream(4)
        )
        assert draws.shape == (1000,)
        assert np.isfinite(draws).all()

    def test_needs_two_draws(self):
        with pytest.raises(DomainError):
            sample_signal(DistributionSpec("normal"), 1, SeededStream(0))


class TestAddCalibratedNoise:
    def test_achieves_target_correlation(self):
        nu = sample_signal(DistributionSpec("normal"), 100000, SeededStream(11))
        for rho in (0.3, 0.7, 0.95):
            x = add_calibrated_noise(nu, rho, SeededStream(12))
            assert np.corrcoef(nu, x)[0, 1] == pytest.approx(rho, abs=0.01)

    def test_calibration_is_scale_free(self):
        nu = sample_signal(DistributionSpec("lognormal"), 50000, SeededStream(13))
        x_base = add_calibrated_noise(nu, 0.6, SeededStream(14))
        x_scaled = add_calibrated_noise(nu * 37.0, 0.6, SeededStream(14))
        assert np.allclose(x_scaled, x_base * 37.0)

    def test_high_rho_limit_shrinks_noise(self):
        nu = sample_signal(DistributionSpec("normal"), 1000, SeededStream(15))
        x = add_calibrated_noise(nu, 0.999999, SeededStream(16))
        assert np.max(np.abs(x - nu)) < 0.05

    def test_domain(self):
        nu = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            add_calibrated_noise(nu, 0.0, SeededStream(0))
        with pytest.raises(DomainError):
            add_calibrated_noise(nu, 1.0, SeededStream(0))
        with pytest.raises(DomainError):
            add_calibrated_noise(np.ones(10), 0.5, SeededStream(0))


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
