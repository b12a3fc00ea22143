"""Accuracy checks against independent scipy implementations.

scipy is a test-only dependency; the library's own numerics must stand
alone, so every function here is compared against its scipy counterpart
over deliberately wide grids.
"""
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from panelmetrics.errors import DomainError
from panelmetrics import special
from panelmetrics.special import (
    bivariate_normal_cdf,
    regularized_incomplete_beta,
    std_normal_cdf,
    std_normal_quantile,
    student_t_sf_two_sided,
)


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_scipy(self):
        z = np.linspace(-8, 8, 201)
        ours = np.array([std_normal_cdf(t) for t in z])
        assert np.max(np.abs(ours - scipy.stats.norm.cdf(z))) < 1e-12

    def test_deep_tail_relative_accuracy(self):
        assert std_normal_cdf(-20.0) == pytest.approx(
            scipy.stats.norm.cdf(-20.0), rel=1e-10
        )

    # the scalar formula 0.5 * erfc(-z / sqrt 2), as computed before the
    # array path, for the deep lower tail, a subnormal, the center and the
    # point from which the CDF rounds to 1
    PINNED = [
        (-40.0, 0.0),
        (-8.3, 5.2055697448902866e-17),
        (-1e-300, 0.5),
        (0.0, 0.5),
        (1.5, 0.9331927987311419),
        (8.3, 1.0),
    ]

    @pytest.mark.parametrize("z, value", PINNED)
    def test_scalar_pinned_bit_for_bit(self, z, value):
        got = std_normal_cdf(z)
        assert type(got) is float
        assert got == value == 0.5 * math.erfc(-z / math.sqrt(2.0))

    def test_array_matches_scalar_calls_bit_for_bit(self):
        z = np.concatenate([[z for z, _ in self.PINNED], np.linspace(-38.0, 9.0, 4701)])
        grid = z.reshape(-1, 3)
        scalar = [[std_normal_cdf(t) for t in row] for row in grid]
        assert np.array_equal(std_normal_cdf(grid), scalar)


class TestStdNormalQuantile:
    def test_reference_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)

    @pytest.mark.parametrize(
        "p, value",
        [
            (1e-300, -37.0470962993612),
            (1e-10, -6.361340902404057),
            (0.001, -3.0902323061678136),
            (0.02425, -1.972961051311885),
            (0.3, -0.5244005127080408),
            (0.5, 0.0),
            (0.975, 1.9599639845400538),
            (1 - 1e-6, 4.753424308827578),
        ],
    )
    def test_pinned_bit_for_bit(self, p, value):
        # values of the per-element math.exp Halley step; the array step
        # uses numpy's exp, which must not move them
        assert std_normal_quantile(p) == value
        assert std_normal_quantile(np.array([p, p]))[1] == value

    def test_against_scipy(self):
        p = np.concatenate(
            [np.array([1e-12, 1e-9, 1e-6]), np.linspace(0.001, 0.999, 199),
             np.array([1 - 1e-6, 1 - 1e-9])]
        )
        ours = std_normal_quantile(p)
        assert np.max(np.abs(ours - scipy.stats.norm.ppf(p))) < 1e-8

    def test_roundtrip(self):
        for p in (1e-6, 1e-3, 0.2, 0.5, 0.8, 1 - 1e-3, 1 - 1e-6):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-7)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan, 5e-324, 1e-310])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)
        with pytest.raises(DomainError):
            std_normal_quantile(np.array([0.5, p]))

    def test_matches_per_element_acklam_loop_bit_for_bit(self):
        """Reference: Acklam's start one probability at a time in math, then
        the same numpy Halley step. Covers the region boundaries and both
        far tails."""
        a, b, c, d = special._ACK_A, special._ACK_B, special._ACK_C, special._ACK_D
        lo = special._ACK_PLOW

        def start(q):
            if lo <= q <= 1.0 - lo:
                r = q - 0.5
                s = r * r
                return ((((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5])
                        * r / (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0))
            u = math.sqrt(-2.0 * math.log(q if q < lo else 1.0 - q))
            x = (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
                (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
            return x if q < lo else -x

        g = np.random.default_rng(5)
        edges = [lo, 1.0 - lo, np.finfo(float).tiny, 1.0 - 2.0**-53]
        p = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            10.0 ** g.uniform(-307.5, -0.3, 4000), 1.0 - 10.0 ** g.uniform(-15.9, -0.3, 4000),
            g.uniform(0.0, 1.0, 4000), (np.arange(1, 601) - 0.5) / 600,
            # numpy 2.4's log is 1 ulp off libm's here on an AVX-512 x86-64 build
            [0.003559376898021277, 0.9878341385230568, 0.9999999995196521, 0.976972, 0.978101],
        ])
        p = p[(p >= np.finfo(float).tiny) & (p < 1.0)]
        x = np.array([start(q) for q in p.tolist()])
        u = (std_normal_cdf(x) - p) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * x * x)
        assert np.array_equal(std_normal_quantile(p), x - u / (1.0 + 0.5 * x * u))

    def test_smallest_normal_probability_is_finite(self):
        # below it (subnormal p) exp(x^2 / 2) in the Halley step overflows
        tiny = np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = std_normal_quantile(np.array([tiny, 1e-300, 0.5]))
        assert np.all(np.isfinite(x)) and x[0] < x[1] < x[2]


class TestBivariateNormalCdf:
    def test_orthant_identity(self):
        for rho in (-0.9, -0.5, 0.0, 0.3, 0.5, 0.8, 0.999):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert bivariate_normal_cdf(0, 0, rho) == pytest.approx(expected, abs=1e-9)

    def test_independence_branch(self):
        for z in (-2.0, 0.5, 3.0):
            assert bivariate_normal_cdf(z, z, 0.0) == pytest.approx(
                std_normal_cdf(z) ** 2
            )

    def test_perfect_dependence_branches(self):
        assert bivariate_normal_cdf(1.0, 2.0, 1.0) == pytest.approx(std_normal_cdf(1.0))
        assert bivariate_normal_cdf(0.5, -0.5, -1.0) == pytest.approx(
            std_normal_cdf(0.5) + std_normal_cdf(-0.5) - 1.0
        )
        assert bivariate_normal_cdf(-1.0, -1.0, -1.0) == 0.0

    def test_against_scipy_wide_grid(self):
        zs = [-3.0, -1.0, -0.3, 0.0, 0.7, 1.5, 3.0]
        rhos = [-0.999, -0.95, -0.6, -0.2, 0.2, 0.55, 0.9, 0.99, 0.999]
        worst = 0.0
        for rho in rhos:
            cov = [[1.0, rho], [rho, 1.0]]
            for z1 in zs:
                for z2 in zs:
                    ref = scipy.stats.multivariate_normal(cov=cov).cdf([z1, z2])
                    worst = max(worst, abs(bivariate_normal_cdf(z1, z2, rho) - ref))
        assert worst < 1e-7

    def test_infinite_arguments(self):
        assert bivariate_normal_cdf(math.inf, 1.0, 0.5) == pytest.approx(
            std_normal_cdf(1.0)
        )
        assert bivariate_normal_cdf(-math.inf, 1.0, 0.5) == 0.0

    def test_symmetry(self):
        assert bivariate_normal_cdf(0.7, -1.2, 0.6) == pytest.approx(
            bivariate_normal_cdf(-1.2, 0.7, 0.6), abs=1e-14
        )

    def test_monotone_in_arguments_and_rho(self):
        zs = np.linspace(-2, 2, 9)
        vals = [bivariate_normal_cdf(z, 0.3, 0.5) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        rhos = np.linspace(-0.99, 0.99, 21)
        vals = [bivariate_normal_cdf(0.4, -0.2, r) for r in rhos]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            bivariate_normal_cdf(0, 0, 1.2)


class TestIncompleteBeta:
    def test_against_scipy(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.5, 7.0, 11.5):
            for b in (0.5, 1.0, 3.0, 9.0):
                for x in np.linspace(0.001, 0.999, 51):
                    ref = scipy.special.betainc(a, b, x)
                    worst = max(worst, abs(regularized_incomplete_beta(a, b, x) - ref))
        assert worst < 1e-12

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentTTwoSided:
    def test_against_scipy(self):
        for dof in (3, 10, 23, 100):
            for t in (0.0, 0.5, 1.3, 2.8, 6.0, 15.0):
                ref = 2.0 * scipy.stats.t.sf(t, dof)
                assert student_t_sf_two_sided(t, dof) == pytest.approx(
                    ref, abs=1e-12, rel=1e-9
                )

    def test_zero_statistic(self):
        assert student_t_sf_two_sided(0.0, 7) == 1.0

    def test_monotone_decreasing_in_t(self):
        vals = [student_t_sf_two_sided(t, 23) for t in np.linspace(0, 10, 41)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_correlation_p_values(self):
        # the variance-quality test path: t = r*sqrt((n-2)/(1-r^2))
        def p_of(r, n):
            t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
            return student_t_sf_two_sided(t, n - 2)

        assert p_of(0.218, 25) == pytest.approx(0.2948, abs=2e-3)
        assert p_of(0.781, 25) < 1e-4
        assert p_of(0.0, 25) == 1.0
