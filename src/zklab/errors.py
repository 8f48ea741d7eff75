"""Exception taxonomy shared across the package."""

__all__ = ["ZKLabError", "ConfigurationError", "UsageError", "DataError",
           "ResolutionError", "InstabilityError"]


class ZKLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ZKLabError):
    """A run configuration key is missing, malformed, or out of range."""


class UsageError(ZKLabError):
    """An operation was called outside its documented domain."""


class DataError(ZKLabError):
    """Input data violates a structural precondition (shape, grid, band)."""


class ResolutionError(ZKLabError):
    """The requested scale cannot be resolved on the given lattice."""


class InstabilityError(ZKLabError):
    """The time stepper produced non-finite values.

    Carries the last finite diagnostics row so callers can persist it
    before aborting.
    """

    def __init__(self, message: str, last_diagnostics: dict | None = None):
        super().__init__(message)
        self.last_diagnostics = last_diagnostics or {}
