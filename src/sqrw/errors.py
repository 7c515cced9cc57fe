"""Exception types shared across the package."""


class SqrwError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SqrwError, ValueError):
    """Invalid coefficients, dimensions, labels, or run parameters."""


class MemoryCapError(SqrwError, RuntimeError):
    """A full-state allocation would exceed the configured memory budget."""
