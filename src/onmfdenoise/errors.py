"""Exception types shared across the package."""


class DenoiseError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedFormatError(DenoiseError):
    """WAV file is not PCM or has an unknown sample layout."""


class InvalidConfigError(DenoiseError):
    """A configuration value is out of range or inconsistent."""


class BufferTooShortError(DenoiseError):
    """Audio buffer is shorter than one analysis window."""


class InvalidParamsError(DenoiseError):
    """Transform parameters violate a structural requirement."""


class DimensionMismatchError(DenoiseError):
    """Matrix operands do not conform."""


class EmptyInputError(DenoiseError):
    """Input matrix or buffer has no content to factorize."""


class BatchTooWideError(DenoiseError):
    """Requested batch has more columns than the data matrix."""


class DegenerateStateError(DenoiseError):
    """Online factorization state carries no aggregated information."""


class LengthMismatchError(DenoiseError):
    """Signals being compared have different lengths."""


class ZeroReferenceError(DenoiseError):
    """Reference signal is identically zero."""


class NonFiniteInputError(DenoiseError):
    """Input samples contain NaN or Inf."""


class NonFiniteResultError(DenoiseError):
    """A computation produced NaN or Inf."""
