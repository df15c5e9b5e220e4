"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
EstimationError -> 4.
"""


class CausalbootError(Exception):
    """Base class for all package errors."""


class ConfigError(CausalbootError):
    """Invalid or inconsistent configuration."""


class DataError(CausalbootError):
    """Malformed or unusable input data."""


class EstimationError(CausalbootError):
    """Estimation could not be completed."""


class SeparationError(EstimationError):
    """Perfect separation detected while fitting a propensity model."""


class DegenerateSubsetError(EstimationError):
    """The rows to fit or weight, such as a drawn subset, hold only one
    treatment arm."""


class RedrawBudgetError(EstimationError):
    """A subset could not be replaced within the redraw budget."""
