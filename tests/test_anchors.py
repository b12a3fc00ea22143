import dataclasses
import math
import re

import numpy as np
import pytest

from panelmetrics.anchors import (
    MAX_T_DOF,
    AnchorSet,
    _winner_match,
    compute_anchors,
    heavy_tail_anchor,
    normal_limit_anchor,
    reference_line,
    student_t_anchor,
    student_t_grid,
)
from panelmetrics.errors import DomainError


class TestNormalLimitAnchor:
    def test_uncorrelated_collapses_to_chance(self):
        for m in (10, 200, 2000):
            assert normal_limit_anchor(m, 0.0) == pytest.approx(1.0 / m, abs=1e-9)

    def test_perfect_correlation_bypass(self):
        assert normal_limit_anchor(50, 1.0) == 1.0

    def test_monotone_in_rho(self):
        vals = [normal_limit_anchor(200, r / 20) for r in range(20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_always_a_fraction(self):
        for m in (6, 100, 5000):
            for rho in (0.0, 0.3, 0.9, 0.99):
                assert 0.0 <= normal_limit_anchor(m, rho) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_limit_anchor(1, 0.5)
        with pytest.raises(DomainError):
            normal_limit_anchor(100, -0.1)


def population_sd_monte_carlo(m, rho, dof, draws, seed):
    """Winner-match rate and its standard error from draws // m trials.

    Each trial draws m t(dof) signal values and adds normal noise whose
    sd is calibrated on the population sd sqrt(dof / (dof - 2)), the
    convention student_t_anchor integrates.
    """
    g = np.random.default_rng(seed)
    sigma = math.sqrt(dof / (dof - 2.0)) * math.sqrt(1.0 / rho**2 - 1.0)
    trials = draws // m
    rows = max(1, 250_000 // m)
    hits = 0
    for start in range(0, trials, rows):
        nu = g.standard_t(dof, (min(rows, trials - start), m))
        x = nu + sigma * g.standard_normal(nu.shape)
        hits += int(np.count_nonzero(x.argmax(axis=1) == nu.argmax(axis=1)))
    p = hits / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


class TestStudentTAnchor:
    @pytest.mark.parametrize(
        "m, rho, dof",
        [(10, 0.5, 4.0), (10, 0.05, 4.0), (100, 0.6, 4.0), (300, 0.8, 2.5), (2000, 0.99, 4.0)],
    )
    def test_agrees_with_population_sd_monte_carlo(self, m, rho, dof):
        p, se = population_sd_monte_carlo(m, rho, dof, 2_000_000, seed=0)
        assert abs(student_t_anchor(m, rho, dof) - p) <= 3.0 * se

    @pytest.mark.parametrize("dof", [2.5, 4.0, 30.0])
    @pytest.mark.parametrize("rho", [0.05, 0.8, 0.99])
    def test_grid_refinement_moves_less_than_1e5(self, rho, dof):
        m = 2000
        sigma, step, half_width = student_t_grid(m, rho, dof)
        base = _winner_match(m, sigma, dof, step, half_width)
        assert base == student_t_anchor(m, rho, dof)
        finer = _winner_match(m, sigma, dof, step / 2.0, half_width * 2.0)
        assert abs(finer - base) < 1e-5

    def test_perfect_rho_bypass(self):
        assert student_t_anchor(100, 1.0, 4.0) == 1.0

    def test_large_dof_approaches_normal_limit(self):
        est = student_t_anchor(200, 0.3, 200.0)
        assert est == pytest.approx(normal_limit_anchor(200, 0.3), abs=0.02)

    def test_higher_rho_hits_more(self):
        rhos = (0.01, 0.05, 0.2, 0.5, 0.8, 0.99, 0.9999)
        vals = [student_t_anchor(100, rho, 4.0) for rho in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert 1.0 / 100 < vals[0] and vals[-1] < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_anchor(1, 0.5, 4.0)
        with pytest.raises(DomainError):
            student_t_anchor(100, 0.0, 4.0)
        with pytest.raises(DomainError):
            student_t_anchor(100, 1.5, 4.0)
        with pytest.raises(DomainError):
            student_t_anchor(100, 0.5, 2.0)
        with pytest.raises(DomainError):
            student_t_anchor(100, 0.5, math.inf)
        with pytest.raises(DomainError):
            student_t_anchor(100, 0.5, 1e300)

    @pytest.mark.parametrize("rho", [5e-324, 1e-300, 1e-160])
    def test_rho_whose_noise_sd_overflows_rejected(self, rho):
        with pytest.raises(DomainError, match="too small for the Student-t anchor"):
            student_t_anchor(40, rho, 4.0)

    def test_tiny_rho_with_finite_noise_is_chance(self):
        assert student_t_anchor(40, 1e-150, 4.0) == pytest.approx(1.0 / 40, abs=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_rho_too_close_to_one_for_the_grid_rejected(self):
        # the noise sd 1.5e-8 would need a grid of 4.9e10 points (390 GB)
        with pytest.raises(DomainError, match=r"^rho 0\.9999999999999999 is too close to 1 "):
            student_t_anchor(2000, 1.0 - 2.0**-53, 4.0)

    @pytest.mark.parametrize("m, dof, half_width, points", [
        (10**7, 2.001, 262144, "4.19e+06"), (10**6, 2.01, 131072, "2.1e+06"),
    ])
    def test_tail_too_wide_for_the_grid_blames_the_tail(self, m, dof, half_width, points):
        # the grid is too wide at a step of 0.125 whatever rho is
        message = (f"^the Student-t anchor at m={m}, dof={dof:g} needs a grid of half-width "
                   f"L={half_width} to hold the signal's tail: {re.escape(points)} points at "
                   "step 0.125, more than 1,048,576$")
        with pytest.raises(DomainError, match=message):
            student_t_grid(m, 0.5, dof)

    def test_largest_dof_is_near_its_normal_limit(self):
        """The last half decade of dof below MAX_T_DOF moves the anchor by
        under 1e-5 at m <= 100,000."""
        for m, rho in ((10, 0.5), (2000, 0.8), (2000, 0.95), (100000, 0.99)):
            top = student_t_anchor(m, rho, MAX_T_DOF)
            assert abs(top - student_t_anchor(m, rho, MAX_T_DOF / math.sqrt(10.0))) < 1e-5

    def test_half_decade_changes_shrink_like_one_over_dof_at_large_m(self):
        """With the density normalised by its grid mass, G^(m-1) sees no
        mass error, so at m = 100,000 each half decade of dof from 1e5 to
        1e6 moves the anchor by about sqrt(10) times less than the one
        before; a mass error of 1e-10 would be multiplied by m - 1."""
        values = [student_t_anchor(100000, 0.99, 10.0 ** e) for e in (5.0, 5.5, 6.0)]
        first, second = abs(values[1] - values[0]), abs(values[2] - values[1])
        assert second * 2.5 <= first


class TestHeavyTailAnchor:
    def test_perfect_precision_stays_perfect(self):
        assert heavy_tail_anchor(2000, 1.0) == 1.0

    def test_interpolation_value(self):
        # line from (1/(10m), 1) to (0.2, p) read at 1/m: the anchor sits
        # one decade above the unit point out of log10(2m) decades total
        m, p = 2000, 0.6
        expected = 1.0 - (1.0 / np.log10(2 * m)) * (1.0 - p)
        assert heavy_tail_anchor(m, p) == pytest.approx(expected, abs=1e-12)
        assert heavy_tail_anchor(m, p) == pytest.approx(0.888952, abs=1e-6)

    def test_never_below_measured_point(self):
        for m in (6, 50, 2000):
            for p in (0.0, 0.4, 0.9):
                assert heavy_tail_anchor(m, p) >= p

    def test_domain(self):
        with pytest.raises(DomainError):
            heavy_tail_anchor(5, 0.5)
        with pytest.raises(DomainError):
            heavy_tail_anchor(100, 1.2)


class TestReferenceLine:
    def test_endpoints(self):
        grid = np.array([0.2, 0.6, 1.0])
        vals = reference_line(grid, 0.55)
        assert vals[-1] == pytest.approx(1.0)
        assert vals[0] == pytest.approx(0.55)

    def test_decreases_toward_small_q(self):
        grid = np.linspace(0.01, 1.0, 25)
        vals = reference_line(grid, 0.7)
        assert np.all(np.diff(vals) > 0)

    def test_perfect_scorer_is_flat(self):
        grid = np.linspace(0.1, 1.0, 10)
        assert np.allclose(reference_line(grid, 1.0), 1.0)


class TestAnchorSet:
    def test_bundle(self):
        anchors = compute_anchors(m=100, rho=0.6, dof=4.0, p_avg_02=0.62)
        assert anchors.q_anchor == pytest.approx(0.01)
        for value in (
            anchors.normal_limit,
            anchors.t_limit,
            anchors.heavy_tail_estimate,
            anchors.p_avg_02,
        ):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(AnchorSet)])
    def test_rejects_out_of_range_fraction(self, field):
        inside = {f.name: 0.5 for f in dataclasses.fields(AnchorSet)}
        for value in (-0.1, 1.5):
            with pytest.raises(DomainError, match=f"^{field} must lie in"):
                AnchorSet(**{**inside, field: value})
