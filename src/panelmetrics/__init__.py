"""Quantifying how panels of correlated scorers improve top-q selection.

The library splits into closed-form laws (:mod:`panelmetrics.laws`),
ranking metrics (:mod:`panelmetrics.precision`), endpoint anchors
(:mod:`panelmetrics.anchors`), the curve and panel-scaling simulators
(:mod:`panelmetrics.simulate`), and real-data analysis
(:mod:`panelmetrics.empirics`), with deterministic randomness supplied
by :mod:`panelmetrics.streams`. The ``panelmetrics`` command drives all
of it from the shell.
"""

__version__ = "0.1.0"

from .errors import (
    DataValidationError,
    DomainError,
    NumericalError,
    PanelMetricsError,
)
from .laws import (
    effective_rho,
    efficiency_exponent,
    panel_precision,
    required_panel_size,
    spearman_brown,
)
from .precision import (
    generalized_precision,
    precision_at_q,
    precision_curve,
)
from .streams import SeededStream

__all__ = [
    "__version__",
    "PanelMetricsError",
    "DomainError",
    "DataValidationError",
    "NumericalError",
    "panel_precision",
    "effective_rho",
    "efficiency_exponent",
    "spearman_brown",
    "required_panel_size",
    "precision_at_q",
    "generalized_precision",
    "precision_curve",
    "SeededStream",
]
