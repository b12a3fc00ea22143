import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from panelmetrics.errors import DomainError
from panelmetrics.laws import (
    PanelQuery,
    clip_quantile,
    effective_rho,
    efficiency_exponent,
    p20_single,
    panel_precision,
    required_panel_size,
    single_precision_linear,
    spearman_brown,
)

QS = st.floats(min_value=0.01, max_value=1.0)
RHOS = st.floats(min_value=0.0, max_value=1.0)


class TestClipQuantile:
    def test_below_window(self):
        assert clip_quantile(0.05) == 0.07

    def test_interior(self):
        assert clip_quantile(0.15) == 0.15

    def test_above_window(self):
        assert clip_quantile(0.50) == 0.22

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(DomainError):
            clip_quantile(q)


class TestEfficiencyExponent:
    def test_headline_point(self):
        assert efficiency_exponent(0.2, 0.55, clipped=True) == pytest.approx(0.56)

    def test_small_q_clips(self):
        assert efficiency_exponent(0.05, 0.30, clipped=True) == pytest.approx(0.63)

    def test_rho_one_kills_correction(self):
        assert efficiency_exponent(0.1, 1.0, clipped=True) == pytest.approx(0.1)
        assert efficiency_exponent(0.04, 1.0, clipped=False) == pytest.approx(0.04)

    def test_unclipped_uses_raw_q(self):
        assert efficiency_exponent(0.5, 0.5, clipped=False) == pytest.approx(0.9)


class TestEffectiveRho:
    def test_single_scorer_identity(self):
        assert effective_rho(1, 0.37, 0.8) == pytest.approx(0.37)

    def test_perfect_correlation_fixed_point(self):
        assert effective_rho(7, 1.0, 0.6) == pytest.approx(1.0)

    def test_published_point(self):
        # reliability table: n=4 at rho 0.545 steps up to about 0.828
        assert effective_rho(4, 0.545, 1.0) == pytest.approx(0.8273, abs=5e-5)

    def test_matches_spearman_brown_at_b_one(self):
        for n in (1, 2, 5, 12):
            assert effective_rho(n, 0.43, 1.0) == pytest.approx(spearman_brown(n, 0.43))

    def test_array_of_sizes_matches_scalar_calls(self):
        n = np.arange(1, 201)
        for rho, b in ((0.3, 0.45), (0.55, 0.7), (0.9, 1.3)):
            vals = effective_rho(n, rho, b)
            expected = np.array([effective_rho(int(k), rho, b) for k in n])
            # numpy's pow and Python's may differ in the last bit of n**b
            assert np.all(np.abs(vals - expected) <= 8 * np.spacing(expected))

    def test_array_containing_zero_rejected(self):
        with pytest.raises(DomainError):
            effective_rho(np.array([1, 0, 3]), 0.5, 0.7)

    @given(rho=st.floats(min_value=0.01, max_value=1.0), n=st.integers(1, 200))
    def test_bounded_between_rho_and_one(self, rho, n):
        val = effective_rho(n, rho, 0.7)
        assert rho - 1e-12 <= val <= 1.0 + 1e-12


class TestPanelPrecision:
    def test_discussion_series(self):
        assert panel_precision(PanelQuery(0.2, 0.55, 1)) == pytest.approx(0.640)
        assert panel_precision(PanelQuery(0.2, 0.55, 5)) == pytest.approx(0.80, abs=5e-3)
        assert panel_precision(PanelQuery(0.2, 0.55, 25)) == pytest.approx(0.90, abs=1e-2)

    def test_n_one_is_linear_law(self):
        for q in (0.05, 0.2, 0.8):
            for rho in (0.0, 0.3, 0.97):
                assert panel_precision(PanelQuery(q, rho, 1)) == pytest.approx(
                    single_precision_linear(q, rho)
                )

    def test_monotone_in_n_and_rho(self):
        for q in (0.05, 0.1, 0.2, 0.3):
            for rho in [i / 10 for i in range(11)]:
                vals = [panel_precision(PanelQuery(q, rho, n)) for n in range(1, 31)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            for n in (1, 3, 10, 30):
                vals = [
                    panel_precision(PanelQuery(q, i / 10, n)) for i in range(11)
                ]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(q=QS, rho=RHOS, n=st.integers(1, 100))
    @example(q=1.0, rho=0.2, n=26)
    def test_stays_a_fraction(self, q, rho, n):
        assert 0.0 <= panel_precision(PanelQuery(q, rho, n)) <= 1.0

    def test_invalid_query_rejected(self):
        with pytest.raises(DomainError):
            PanelQuery(0.2, 1.2, 3)
        with pytest.raises(DomainError):
            PanelQuery(0.2, 0.5, 0)
        with pytest.raises(DomainError):
            PanelQuery(0.0, 0.5, 3)


class TestSingleScorerForms:
    def test_linear_edges(self):
        assert single_precision_linear(1.0, 0.4) == pytest.approx(1.0)
        assert single_precision_linear(0.33, 0.0) == pytest.approx(0.33)
        assert single_precision_linear(0.2, 0.545) == pytest.approx(0.636)

    def test_p20_endpoints(self):
        assert p20_single(0.0) == pytest.approx(0.2)
        assert p20_single(1.0) == pytest.approx(1.0)

    def test_p20_hand_value(self):
        assert p20_single(0.8) == pytest.approx(0.2 + 0.4 + 0.3 * 0.8**10)

    def test_p20_monotone(self):
        vals = [p20_single(i / 50) for i in range(51)]
        assert all(0.2 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSpearmanBrown:
    def test_published_predictions(self):
        assert spearman_brown(2, 0.545) == pytest.approx(0.7055, abs=5e-5)
        assert spearman_brown(3, 0.545) == pytest.approx(0.7823, abs=5e-5)
        assert spearman_brown(1, 0.3) == pytest.approx(0.3)

    @given(st.integers(min_value=1, max_value=10**6), RHOS)
    @example(1, 0.0)
    @example(7, 1.0)
    @example(3, 5e-324)
    @example(3, 1.0 - 2.0**-53)
    def test_bit_identical_to_step_up_formula(self, n, rho):
        assert spearman_brown(n, rho) == n * rho / (1.0 + (n - 1.0) * rho)

    @pytest.mark.parametrize(
        "n, rho, message",
        [(0, 0.5, "n must be at least 1"), (2, 1.5, r"rho must lie in \[0, 1\]")],
    )
    def test_domain_errors(self, n, rho, message):
        with pytest.raises(DomainError, match=message):
            spearman_brown(n, rho)


class TestRequiredPanelSize:
    def test_discussion_example(self):
        assert required_panel_size(0.2, 0.55, 0.75, 30) == 3

    def test_unachievable_reported_as_none(self):
        assert required_panel_size(0.2, 0.55, 0.95, 30) is None

    def test_easy_target_needs_one(self):
        assert required_panel_size(0.2, 0.55, 0.60, 30) == 1

    def test_result_is_minimal(self):
        n = required_panel_size(0.1, 0.4, 0.8, 50)
        assert n is not None
        assert panel_precision(PanelQuery(0.1, 0.4, n)) >= 0.8
        assert panel_precision(PanelQuery(0.1, 0.4, n - 1)) < 0.8

    def test_bad_target_rejected(self):
        with pytest.raises(DomainError):
            required_panel_size(0.2, 0.5, 1.0, 30)
