import math

import numpy as np
import pytest

from panelmetrics.streams import SeededStream


@pytest.fixture
def negative_scorer_matrix():
    """500 x 4 scores: three scorers load on a common factor and the
    last one loads on it negatively, so its leading-eigenvector weight
    comes out near -0.3."""
    g = SeededStream(7, 77).generator()
    common = g.standard_normal(500)
    cols = [
        math.sqrt(0.6) * common + math.sqrt(0.4) * g.standard_normal(500)
        for _ in range(3)
    ]
    cols.append(-0.5 * common + g.standard_normal(500))
    return 7.0 + np.column_stack(cols)


@pytest.fixture
def equicorr_matrix():
    """Factory for m x n score matrices with equal pairwise correlation.

    Columns share a common factor with loading sqrt(rho), so the
    population pairwise correlation is rho exactly and the measured one
    lands close at moderate m.
    """

    def make(
        m: int,
        n: int,
        rho: float,
        seed: int = 0,
        center: float = 7.0,
        scale: float = 1.0,
    ) -> np.ndarray:
        g = SeededStream(seed, 905).generator()
        common = g.standard_normal(m)
        own = g.standard_normal((m, n))
        cols = math.sqrt(rho) * common[:, None] + math.sqrt(1.0 - rho) * own
        return center + scale * cols

    return make
