"""Exception types shared across the package: one per CLI exit code."""


class DenoiseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DenoiseError):
    """A setting, argument, signal or file the package rejects (exit 2)."""


class NonFiniteResultError(DenoiseError):
    """A computation produced NaN or Inf (exit 3)."""
