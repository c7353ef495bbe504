"""Exception types shared across the package: one per CLI exit code, and
the one check of integer settings and arguments and the one of L1 weights."""

import math
import numbers


class DenoiseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DenoiseError):
    """A setting, argument, signal or file the package rejects (exit 2)."""


class NonFiniteResultError(DenoiseError):
    """A computation produced NaN or Inf (exit 3)."""


def check_integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, or ``InvalidInputError`` naming ``name``
    unless it is an integer (an ``int`` or a numpy integer, not a
    ``bool``) of at least ``minimum``; the ``int`` keeps a numpy integer's
    width out of the arithmetic."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_weight(value) -> None:
    """``InvalidInputError`` unless the L1 weight ``value`` is finite and
    >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise InvalidInputError(f"L1 weight must be finite and >= 0, got {value}")


def check_integers(settings, **minimums) -> None:
    """``check_integer`` on each field of the frozen dataclass ``settings``
    named in ``minimums``, in order, storing each back as an ``int``."""
    for name, minimum in minimums.items():
        object.__setattr__(settings, name, check_integer(name, getattr(settings, name), minimum))
