"""Exception types shared across the package: one per CLI exit code, and
the one check of the settings' integer fields."""

import numbers


class DenoiseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DenoiseError):
    """A setting, argument, signal or file the package rejects (exit 2)."""


class NonFiniteResultError(DenoiseError):
    """A computation produced NaN or Inf (exit 3)."""


def check_integers(settings, **minimums) -> None:
    """Raise ``InvalidInputError`` naming the first field of the frozen
    dataclass ``settings`` in ``minimums`` that is not an integer (an
    ``int`` or a numpy integer, not a ``bool``) of at least its minimum;
    store each as an ``int``, so no numpy integer's width reaches the
    arithmetic."""
    for name, minimum in minimums.items():
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
        object.__setattr__(settings, name, int(value))
