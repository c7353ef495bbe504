"""Short-time Fourier transform, its overlap-add inverse, and exporters.

Frame f covers samples [f*hop, f*hop + window_len); the tail is
zero-padded so every input sample is covered. Only non-negative
frequency bins are kept (d = fft_len/2 + 1). Reconstruction uses
overlap-add with window-square normalization, which is exact in the
interior for Hann windows at 50% or 75% overlap.

A ``Spectrogram`` keeps the complex values, so resynthesis after masking
reuses the mixture's phases: ``istft(X, mask=ratio)`` inverts
``s = ratio * X`` without ever forming the phase factors or the whole
masked spectrum. Both directions work on blocks of frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer
from .errors import (
    BufferTooShortError,
    DimensionMismatchError,
    InvalidParamsError,
    NonFiniteInputError,
)

__all__ = [
    "StftParams",
    "Spectrogram",
    "stft",
    "istft",
    "export_pgm",
    "export_csv",
]

# frames per transform block: large enough to amortize the per-call cost
# of the FFT, small enough that a block's temporaries stay in cache
BLOCK_FRAMES = 64


@dataclass(frozen=True)
class StftParams:
    window_len: int = 1024
    hop: int = 512
    fft_len: int = 1024
    window_kind: str = "hann"

    def __post_init__(self):
        if self.window_len <= 0 or self.hop <= 0:
            raise InvalidParamsError("window_len and hop must be positive")
        if self.hop > self.window_len:
            raise InvalidParamsError("hop must not exceed window_len")
        if self.fft_len < self.window_len:
            raise InvalidParamsError("fft_len must be >= window_len")
        if self.fft_len & (self.fft_len - 1):
            raise InvalidParamsError("fft_len must be a power of two")
        if self.window_kind != "hann":
            raise InvalidParamsError(f"unknown window {self.window_kind!r}")

    @property
    def n_bins(self) -> int:
        return self.fft_len // 2 + 1

    def window(self) -> np.ndarray:
        # periodic Hann: exact constant overlap-add at hop = N/2 or N/4
        n = np.arange(self.window_len)
        return 0.5 - 0.5 * np.cos(2 * np.pi * n / self.window_len)


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT, bins x frames.

    ``values`` is normally the transposed view of the frames-major array
    that ``stft`` fills, so each frame's bins are contiguous in memory.
    """

    values: np.ndarray  # (d, n), complex
    params: StftParams
    sample_rate_hz: int

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def magnitudes(self) -> np.ndarray:
        """|values|, computed on each access and not kept: a caller that
        needs them more than once holds on to the array itself."""
        return np.abs(self.values)


def stft(buf: AudioBuffer, params: StftParams | None = None) -> Spectrogram:
    """Forward transform of a mono buffer, computed BLOCK_FRAMES frames at
    a time and copied into one preallocated frames-major array."""
    params = params or StftParams()
    if not np.all(np.isfinite(buf.samples)):
        raise NonFiniteInputError("input holds NaN or Inf samples")
    if len(buf) < params.window_len:
        raise BufferTooShortError(
            f"buffer has {len(buf)} samples, window needs {params.window_len}"
        )
    win_len, hop = params.window_len, params.hop
    n = len(buf)
    n_frames = 1 + int(np.ceil(max(0, n - win_len) / hop))
    padded = np.zeros((n_frames - 1) * hop + win_len)
    padded[:n] = buf.samples
    frames = sliding_window_view(padded, win_len)[::hop]
    window = params.window()
    out = np.empty((n_frames, params.n_bins), dtype=np.complex128)
    for start in range(0, n_frames, BLOCK_FRAMES):
        stop = min(start + BLOCK_FRAMES, n_frames)
        block = frames[start:stop] * window
        # assigned rather than passed as rfft's out=, which needs NumPy 2
        out[start:stop] = np.fft.rfft(block, n=params.fft_len, axis=1)
    return Spectrogram(out.T, params, buf.sample_rate_hz)


def _check_cola(params: StftParams) -> None:
    if params.hop * 2 != params.window_len and params.hop * 4 != params.window_len:
        raise InvalidParamsError(
            "inverse needs Hann with hop = window_len/2 or window_len/4"
        )


def istft(spec: Spectrogram, mask: np.ndarray | None = None) -> AudioBuffer:
    """Overlap-add inverse; output length (n_frames-1)*hop + window_len.

    With ``mask`` (real, same shape as the spectrogram) the inverse is
    that of ``mask * spec.values``: the mixture's own phases are reused
    without forming the masked spectrum, one block of frames at a time.
    """
    params = spec.params
    _check_cola(params)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != spec.values.shape:
            raise DimensionMismatchError(
                f"mask shape {mask.shape} != spectrogram {spec.values.shape}"
            )
    win_len, hop = params.window_len, params.hop
    window = params.window()
    wsq = window**2
    n_frames = spec.n_frames
    out_len = (n_frames - 1) * hop + win_len
    out = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for start in range(0, n_frames, BLOCK_FRAMES):
        stop = min(start + BLOCK_FRAMES, n_frames)
        block = spec.values[:, start:stop].T
        if mask is not None:
            block = block * mask[:, start:stop].T
        frames = np.fft.irfft(block, n=params.fft_len, axis=1)[:, :win_len]
        for f in range(start, stop):
            lo = f * hop
            out[lo : lo + win_len] += frames[f - start] * window
            wsum[lo : lo + win_len] += wsq
    # floor the normalizer: at the very edges the window-power sum decays
    # to zero and dividing by it would blow up frames whose magnitudes
    # were modified; flooring tapers those few samples instead
    out /= np.maximum(wsum, 1e-2)
    return AudioBuffer(out, spec.sample_rate_hz)


def export_pgm(magnitudes: np.ndarray, path, floor_db: float = -80.0) -> None:
    """Write magnitudes as an 8-bit P5 PGM, log-scaled relative to the max."""
    mags = np.asarray(magnitudes, dtype=np.float64)
    peak = mags.max()
    if peak <= 0:
        db = np.full_like(mags, floor_db)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mags / peak)
        db = np.maximum(db, floor_db)
    pix = np.rint((db - floor_db) / (-floor_db) * 255.0).astype(np.uint8)
    d, n = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {d}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def export_csv(magnitudes: np.ndarray, path) -> None:
    """Write magnitudes as CSV, one row per frequency bin."""
    np.savetxt(path, np.asarray(magnitudes), delimiter=",", fmt="%.12g")
