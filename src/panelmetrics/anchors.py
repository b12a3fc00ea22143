"""Limit values of single-scorer precision at the extreme quantile q = 1/m.

At q = 1/m "top-q selection" degenerates to picking the single winner,
and simulation gets expensive exactly where curves are most interesting.
Three anchors estimate that endpoint instead: an exact bivariate-normal
calculation for normal signal, the finite-m winner-match probability
for Student-t signal (an integral over order statistics, computed by
quadrature), and a log-linear interpolation for heavy-tailed signal.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .special import (
    bivariate_normal_cdf,
    std_normal_cdf,
    std_normal_quantile,
    student_t_sf_two_sided,
)

__all__ = [
    "MAX_T_DOF",
    "AnchorSet",
    "normal_limit_anchor",
    "student_t_anchor",
    "student_t_grid",
    "heavy_tail_anchor",
    "reference_line",
    "compute_anchors",
]

# Winner-match quadrature (student_t_anchor): Gauss-Hermite nodes for the
# noise, the largest grid step, and the signal mass m * S(L) allowed above
# the grid. Each setting moves the result by under 1e-5 when refined.
_HERMITE_NODES = 64
_MAX_STEP = 0.125
_TAIL_MASS = 1e-4
# std_normal_cdf(z) rounds to exactly 1.0 from here on
_PHI_ONE = 8.3
# most grid points student_t_grid allows: about 80 bytes and 3 us each, so
# 80 MiB and 3 s at the limit. The step shrinks with the noise sd, so rho
# near 1 needs the most (at m = 2000, t(4), rho up to about 1 - 2.4e-7 fits).
_MAX_GRID_POINTS = 1 << 20
# largest dof the Student-t anchor takes: up to here its change per half
# decade of dof shrinks like 1/dof, to under 1e-5 at m <= 100,000. The
# density is normalised by its grid mass, not by a gamma-function ratio
# that cancels in rounding, so the trend holds past 1e8; at 1e300 the
# incomplete beta fails.
MAX_T_DOF = 1e6


@dataclasses.dataclass(frozen=True)
class AnchorSet:
    """Endpoint estimates for one (m, rho) setting."""

    q_anchor: float
    normal_limit: float
    t_limit: float
    heavy_tail_estimate: float
    p_avg_02: float

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            val = getattr(self, field.name)
            if not 0.0 <= val <= 1.0:
                raise DomainError(f"{field.name} must lie in [0, 1], got {val}")


def normal_limit_anchor(m: int, rho: float) -> float:
    """Exact P(1/m) when signal and score are jointly normal.

    With q = 1/m and z the upper-q quantile, the expected overlap is
    m * P(X > z, V > z), so P(q) = Phi2(-z, -z; rho) / q. The survival
    form avoids the cancellation in 1 - 2*(1-q) + Phi2(z, z; rho) when
    q is tiny.
    """
    if m < 2:
        raise DomainError("m must be at least 2")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    if rho == 1.0:
        return 1.0
    q = 1.0 / m
    z = std_normal_quantile(1.0 - q)
    return bivariate_normal_cdf(-z, -z, rho) / q


def student_t_anchor(m: int, rho: float, dof: float) -> float:
    """Winner-match probability for Student-t signal, by quadrature.

    Signal values v_i are iid t(dof) and scores are v_i + sigma * e_i
    with standard normal e_i. The noise sd sigma is calibrated on the
    population sd sqrt(dof / (dof - 2)), so the score has correlation
    rho with the signal. The result is the probability that the highest
    score belongs to the highest signal value: with f the t density,

        P = m * int f(v) E_e[G(v, v + sigma e)^(m-1)] dv,
        G(v, x) = int_{u<v} f(u) Phi((x - u) / sigma) du,

    G being the chance that one rival lies below the winner in both
    signal and score (order statistics, David & Nagaraja 2003). Unlike
    the normal anchor this is the finite-sample argmax probability, not
    a threshold-exceedance expectation; the two differ noticeably at
    small m. It makes no random draws.
    """
    sigma, step, half_width = student_t_grid(m, rho, dof)
    return 1.0 if rho == 1.0 else _winner_match(m, sigma, dof, step, half_width)


def student_t_grid(m: int, rho: float, dof: float) -> tuple[float, float, float]:
    """Noise sd sigma, grid step and half-width L of ``student_t_anchor``.

    The step resolves both the t density and the noise kernel, whose
    scale is sigma. L doubles until the signal mass above it, m * S(L),
    is at most ``_TAIL_MASS``: heavy tails need a wide grid. Raises
    ``DomainError`` for every setting the anchor rejects, without
    integrating: a grid of more than ``_MAX_GRID_POINTS`` points is blamed
    on the tail when even the largest step cannot cover L, else on rho.
    At rho = 1 the anchor needs no grid and sigma is 0.
    """
    if m < 2:
        raise DomainError("m must be at least 2")
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    if not 2.0 < dof <= MAX_T_DOF:
        raise DomainError(f"dof must exceed 2 and be at most {MAX_T_DOF:g}")
    if rho == 1.0:
        return 0.0, 0.0, 0.0
    # a rho whose square underflows to 0 calls for infinite noise
    sigma = math.sqrt(dof / (dof - 2.0)) * math.sqrt(1.0 / rho**2 - 1.0) if rho**2 else math.inf
    if not math.isfinite(sigma):
        raise DomainError(f"rho {rho!r} is too small for the Student-t anchor: "
                          "its noise sd overflows")
    half_width = 8.0
    while m * 0.5 * student_t_sf_two_sided(half_width, dof) > _TAIL_MASS:
        half_width *= 2.0
    points = math.ceil(2.0 * half_width / _MAX_STEP) + 1
    if points > _MAX_GRID_POINTS:
        raise DomainError(f"the Student-t anchor at m={m}, dof={dof:g} needs a grid of "
                          f"half-width L={half_width:g} to hold the signal's tail: "
                          f"{points:.3g} points at step {_MAX_STEP:g}, "
                          f"more than {_MAX_GRID_POINTS:,}")
    step = min(_MAX_STEP, sigma / 4.0)
    points = math.ceil(2.0 * half_width / step) + 1
    if points > _MAX_GRID_POINTS:
        raise DomainError(f"rho {rho!r} is too close to 1 for the Student-t anchor at "
                          f"m={m}, dof={dof:g}: its grid would need {points:.3g} points, "
                          f"more than {_MAX_GRID_POINTS:,}")
    return sigma, step, half_width


def _winner_match(
    m: int, sigma: float, dof: float, step: float, half_width: float
) -> float:
    """The winner-match integral on a uniform grid over [-L, L].

    For each Gauss-Hermite node e, G(v, v + sigma e) is one FFT
    convolution of f with the kernel Phi(e + w / sigma), w = v - u >= 0,
    by the trapezoid rule with its h^2 end correction at w = 0. The
    density f is normalised by its grid mass: its trapezoid sum plus
    the two tails 2 S(L) is exactly 1, since G^(m-1) multiplies any mass
    error by m - 1. The kernel is cut where Phi rounds to 1; the signal
    mass beyond the cut is a running sum of f, and the mass below the
    grid is F(-L). Above the grid the winner's chance m * S(L) is
    weighted by the match probability at v = L.
    """
    n = math.ceil(2.0 * half_width / step) + 1
    v = np.linspace(-half_width, half_width, n)
    h = v[1] - v[0]
    f = (1.0 + v * v / dof) ** (-0.5 * (dof + 1.0))
    tail = 0.5 * student_t_sf_two_sided(half_width, dof)
    f *= (1.0 - 2.0 * tail) / (h * (f.sum() - 0.5 * (f[0] + f[-1])))
    df = -(dof + 1.0) * v / (dof + v * v) * f

    # probabilists' Gauss-Hermite rule by Golub-Welsch; weights below
    # 1e-16 are eigh's rounding noise and would only lengthen the kernel
    off = np.sqrt(np.arange(1.0, _HERMITE_NODES))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    nodes, weights = nodes[weights > 1e-16], weights[weights > 1e-16]

    cut = min(math.ceil(sigma * (_PHI_ONE - nodes[0]) / h) + 1, n)
    w = np.arange(cut) * h
    beyond = np.zeros(n)
    beyond[cut:] = np.cumsum(f)[: n - cut] * h
    size = 1 << (n + cut - 2).bit_length()
    f_hat = np.fft.rfft(f, size)
    match = np.zeros(n)
    for e, weight in zip(nodes, weights):
        kernel = std_normal_cdf(e + w / sigma)
        # d/dw of f(v - w) Phi(e + w / sigma) at w = 0
        phi = math.exp(-0.5 * e * e) / (math.sqrt(2.0 * math.pi) * sigma)
        slope = f * phi - df * kernel[0]
        kernel[0] *= 0.5
        g = np.fft.irfft(f_hat * np.fft.rfft(kernel, size), size)[:n] * h
        g += beyond + tail + h * h / 12.0 * slope
        np.clip(g, np.finfo(float).tiny, 1.0, out=g)
        match += weight * np.exp((m - 1) * np.log(g))

    body = m * f * match
    inside = h * (body.sum() - 0.5 * (body[0] + body[-1]))
    above = m * tail * match[-1] / math.exp((m - 1) * math.log1p(-tail))
    return min(max(float(inside + above), 0.0), 1.0)


def heavy_tail_anchor(m: int, p_avg_02: float) -> float:
    """Log-linear estimate of P(1/m) for heavy-tailed signal.

    Assumes P(1/(10m)) = 1 and interpolates linearly in log10(q) down to
    the measured P(0.2) = p_avg_02, then reads the line at q = 1/m.
    Needs 1/m < 0.2, i.e. m >= 6, so the anchor sits inside the segment.
    """
    if m < 6:
        raise DomainError("m must be at least 6 so that 1/m lies below 0.2")
    if not 0.0 <= p_avg_02 <= 1.0:
        raise DomainError("p_avg_02 must lie in [0, 1]")
    lo = math.log10(1.0 / (10.0 * m))
    f = (math.log10(1.0 / m) - lo) / (math.log10(0.2) - lo)
    return 1.0 - f * (1.0 - p_avg_02)


def reference_line(q_grid: np.ndarray, p_avg_02: float) -> np.ndarray:
    """Straight line through (1, 1) and (0.2, p_avg_02), evaluated on a grid."""
    if not 0.0 <= p_avg_02 <= 1.0:
        raise DomainError("p_avg_02 must lie in [0, 1]")
    q = np.asarray(q_grid, dtype=float)
    slope = (1.0 - p_avg_02) / 0.8
    return 1.0 + slope * (q - 1.0)


def compute_anchors(m: int, rho: float, dof: float, p_avg_02: float) -> AnchorSet:
    """Bundle all three endpoint estimates for one setting."""
    return AnchorSet(
        q_anchor=1.0 / m,
        normal_limit=normal_limit_anchor(m, rho),
        t_limit=student_t_anchor(m, rho, dof),
        heavy_tail_estimate=heavy_tail_anchor(m, p_avg_02),
        p_avg_02=p_avg_02,
    )
