"""Exception types shared across the package."""

__all__ = [
    "PanelMetricsError",
    "DomainError",
    "DataValidationError",
    "NumericalError",
]


class PanelMetricsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PanelMetricsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataValidationError(PanelMetricsError, ValueError):
    """Ingested data failed validation; the message names the offending rows."""


class NumericalError(PanelMetricsError, ArithmeticError):
    """A numerical routine exhausted its iteration budget without converging."""
