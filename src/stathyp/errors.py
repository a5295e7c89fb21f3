"""Exception types shared across the package."""


class StathypError(Exception):
    """Base class for all package errors."""


class DomainError(StathypError):
    """A point or value is outside the domain of an operation."""


class ParameterError(StathypError):
    """A parameter violates an operation's preconditions."""


class UnsupportedMethodError(StathypError):
    """The requested computation method is not available for this input."""


class CoverageError(StathypError):
    """A net does not cover the region it is being used on."""
