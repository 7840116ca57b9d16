"""Exception taxonomy shared across the package."""


class CsveError(Exception):
    """Base class for all package-specific failures."""


class InputError(CsveError):
    """Invalid arguments or malformed data."""


class CorruptFileError(InputError):
    """A file on disk is truncated or malformed."""


class SupportError(InputError):
    """A distribution or policy places mass where its reference has none."""


class NumericError(CsveError):
    """A numeric routine failed to meet its residual tolerance."""


class ConvergenceError(CsveError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateDistributionError(CsveError):
    """A penalty threshold is undefined because d equals d_u on its support."""


class DivergenceError(CsveError):
    """Training produced a non-finite loss."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(CsveError):
    """A run configuration value is missing or out of range."""
