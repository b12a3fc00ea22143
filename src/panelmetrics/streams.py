"""Deterministic random generation for the simulators, and the column
statistics that the simulators and the score-table analysis share.

Every draw starts from a :class:`SeededStream` value, whose generator
always begins at the same point: taking it twice gives identical draws.
The samplers draw with a generator that their caller takes from such a
value. Code that needs fresh randomness derives child streams instead of
re-using one.

The bit generator is numpy's Philox, a counter-based generator keyed by
the 128-bit (seed, stream_id) pair. Distinct pairs give independent,
platform-stable sequences. ``derive(i).generator()`` costs about 14 us
on a 2-core Xeon, most of it in ``np.random.Philox``, which seeds a
throwaway ``SeedSequence`` from OS entropy before it applies the key;
``children`` re-keys one Philox per child for about 2.6 us. Take a
generator per stream for a few streams, and ``children`` for a loop over
many sibling streams, such as the per-trial streams of ``curves``.

``standardize`` and ``correlation_summary`` check every column's spread
by one rule, so a column either has a usable sd or raises DomainError.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Iterator

import numpy as np

from .errors import DomainError

__all__ = [
    "SeededStream",
    "DISTRIBUTION_KINDS",
    "sample_signal",
    "add_calibrated_noise",
    "superstar_transform",
    "standardize",
    "correlation_summary",
]

#: signal distributions, in the order of the ``curves`` columns and streams
DISTRIBUTION_KINDS = ("normal", "lognormal", "pareto", "student_t")

# the superstar tail transform's fixed shape: where the boost starts and how
# sharply it turns on
_KINK = 1.6
_SHARPNESS = 3.0

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit ints
    x = (x + _GOLDEN64) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclasses.dataclass(frozen=True)
class SeededStream:
    """Value-type handle for one reproducible random stream.

    ``generator()`` always starts from the beginning of the stream, so a
    stream value never "advances"; sequential consumers hold on to the
    returned generator, and independent work units get their own derived
    streams via ``derive``.
    """

    seed: int
    stream_id: int = 0

    def _key(self) -> np.ndarray:
        # Philox's 128-bit key as its two 64-bit words, low word first. A
        # tuple of ints would pass through float64 and lose a word above 2**53.
        return np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def children(self, count: int) -> Iterator[np.random.Generator]:
        """A generator at the start of ``derive(i)``'s stream, for i = 0..count-1.

        Every child is the same ``Generator`` over one Philox, re-keyed in
        place, so it gives the draws of ``derive(i).generator()`` only until
        the next child is taken. Each child starts from a fresh Philox's
        state (counter, buffer and cached 32-bit half all reset) with its
        own key. The Philox belongs to this iterator, so iterators on
        different threads share nothing.
        """
        bit_generator = np.random.Philox(key=self._key())
        fresh = bit_generator.state
        g = np.random.Generator(bit_generator)
        for child in range(count):
            fresh["state"]["key"] = self.derive(child)._key()
            bit_generator.state = fresh
            yield g

    def derive(self, child: int) -> "SeededStream":
        """Child stream ``child`` of this stream (child >= 0)."""
        if child < 0:
            raise DomainError("child index must be non-negative")
        mixed = _splitmix64((self.stream_id + (child + 1) * _GOLDEN64) & _MASK64)
        return SeededStream(self.seed, mixed)


def sample_signal(kind: str, m: int, g: np.random.Generator, t_dof: float = 4.0) -> np.ndarray:
    """Draw ``m`` independent signal values of distribution ``kind`` with ``g``.

    ``kind`` is one of ``DISTRIBUTION_KINDS``. ``t_dof``, the Student-t
    signal's degrees of freedom, must exceed 2 whatever the kind, so the
    signal has finite variance: the additive-noise calibration divides by
    its sample sd. The Pareto signal has shape 3 for the same reason.
    """
    if not t_dof > 2:
        raise DomainError("t_dof must exceed 2 (finite variance)")
    if m < 2:
        raise DomainError("need at least 2 draws")
    if kind == "normal":
        return g.standard_normal(m)
    if kind == "lognormal":
        return g.lognormal(0.0, 1.0, m)
    if kind == "pareto":
        # numpy's pareto is the Lomax form; the shift restores support [1, inf)
        return 1.0 + g.pareto(3.0, m)
    if kind == "student_t":
        # handles non-integer dof via the normal / chi-square ratio
        return g.standard_t(t_dof, m)
    raise DomainError(
        f"unknown distribution kind {kind!r}; expected one of {DISTRIBUTION_KINDS}"
    )


def add_calibrated_noise(
    nu: np.ndarray, rho_target: float, g: np.random.Generator
) -> np.ndarray:
    """Observed scores ``nu + eps`` with noise sized to hit ``rho_target``,
    drawn with ``g``.

    The noise sd is ``sd(nu) * sqrt(1/rho_target**2 - 1)`` where ``sd``
    is the sample standard deviation of the realized signal (population
    divisor). Calibrating against the sample rather than the population
    makes the achieved correlation scale-free and distribution-free.
    """
    nu = np.asarray(nu, dtype=float)
    if not 0.0 < rho_target < 1.0:
        raise DomainError("rho_target must lie strictly between 0 and 1")
    if nu.size < 2:
        raise DomainError("need at least 2 signal values")
    sd = float(nu.std())
    if sd == 0.0:
        raise DomainError("signal has zero variance; noise cannot be calibrated")
    # a rho whose square underflows to 0 calls for infinite noise
    noise_sd = sd * math.sqrt(1.0 / rho_target**2 - 1.0) if rho_target**2 else math.inf
    if not math.isfinite(noise_sd):
        raise DomainError(f"rho {rho_target!r} is too small to calibrate noise: "
                          "the noise sd overflows")
    return nu + g.standard_normal(nu.size) * noise_sd


def superstar_transform(z: np.ndarray, boost: float) -> np.ndarray:
    """Apply the smooth tail boost elementwise; identity when boost is 0.

    Each value gains ``boost`` times a softplus of its excess over the
    kink, so values well above 1.6 rise by about ``boost * (z - 1.6)``.
    Uses logaddexp so the softplus term cannot overflow for large z.
    """
    z = np.array(z, dtype=float)
    if boost == 0:
        return z
    excess = np.logaddexp(0.0, _SHARPNESS * (z - _KINK)) / _SHARPNESS
    return z + boost * excess


def _column_sd(x: np.ndarray, constant: str) -> np.ndarray:
    """Each column's sd (population divisor), or DomainError if one has none.

    A finite column is constant, and raises with the caller's ``constant``
    text, when ``max - min <= 8 * eps * max(|max|, |min|)`` (its values are
    equal up to rounding: a repeated value's computed sd need not be 0, and
    equal variances summed in different orders differ by up to 2 eps of
    their size). A column that is not constant but whose sd is 0 raises
    its own message: its spread is too small for its square to be
    represented (scores below about 1e-154 in scale). A column whose sd is
    not finite raises too: its squared deviations overflow, or it holds
    inf or nan.
    """
    with np.errstate(all="ignore"):
        sd = x.std(axis=0)
        hi, lo = x.max(axis=0), x.min(axis=0)
        constant_cols = hi - lo <= 8 * np.finfo(float).eps * np.maximum(abs(hi), abs(lo))
    if np.any(constant_cols):
        raise DomainError(constant)
    if np.any(sd == 0.0):
        raise DomainError("scores too small in scale for their spread to be represented")
    if not np.isfinite(sd).all():
        raise DomainError(
            "column sd is not finite: its squared deviations overflow, or it holds inf or nan"
        )
    return sd


def standardize(x: np.ndarray) -> np.ndarray:
    """Center and scale each column to mean 0, sd 1 (population divisor).

    Works column-wise on a 2-d array; a 1-d array is one column.
    """
    x = np.asarray(x, dtype=float)
    sd = _column_sd(x, "cannot standardize a constant column")
    return (x - x.mean(axis=0)) / sd


def correlation_summary(scores: np.ndarray) -> tuple[np.ndarray, float]:
    """Pearson correlation matrix of the columns and its mean off-diagonal value."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise DomainError("need a 2-d matrix with at least 2 columns")
    _column_sd(scores, "constant column has undefined correlation")
    corr = np.corrcoef(scores, rowvar=False)
    n = corr.shape[0]
    return corr, float((corr.sum() - n) / (n * (n - 1)))
