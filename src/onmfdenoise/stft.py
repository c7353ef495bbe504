"""Short-time Fourier transform, its overlap-add inverse, and exporters.

Frame f covers samples [f*hop, f*hop + window_len); the tail is
zero-padded so every input sample is covered. Only non-negative
frequency bins are kept (d = fft_len/2 + 1). Reconstruction uses
overlap-add with window-square normalization, which is exact in the
interior for Hann windows at 50% or 75% overlap.

``stft_magnitudes`` gives only |X|, for callers that read nothing else;
it runs the same framing and block loop as ``stft``, so the complex
spectrum exists one block at a time.

A ``Spectrogram`` keeps the complex values, so resynthesis after masking
reuses the mixture's phases: ``istft(X, mask=ratio)`` inverts
``s = ratio * X`` without ever forming the phase factors or the whole
masked spectrum. The mask is a function that forms each block's ratio
when the inverse reaches it, so no d x n mask need exist. Both
directions work on blocks of ``frames_per_block(params)`` frames, about
64 Ki samples each whatever the FFT size, and beyond their input and
output hold one block of each working array: the forward transform
windows each block's frames into one reused buffer, and the inverse
forms ratio * X in one reused complex block (none without a mask); each
block's FFT result is freed before the next block's is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer
from .errors import InvalidInputError

__all__ = [
    "StftParams",
    "Spectrogram",
    "frames_per_block",
    "frame_blocks",
    "stft",
    "stft_magnitudes",
    "istft",
    "export_pgm",
    "export_csv",
]

# samples per transform block: large enough to amortize the per-call cost
# of the FFT, small enough that a block's temporaries stay in cache
BLOCK_SAMPLES = 2**16


@dataclass(frozen=True)
class StftParams:
    window_len: int = 1024
    hop: int = 512
    fft_len: int = 1024

    def __post_init__(self):
        if self.window_len <= 0 or self.hop <= 0:
            raise InvalidInputError("window_len and hop must be positive")
        if self.hop > self.window_len:
            raise InvalidInputError("hop must not exceed window_len")
        if self.fft_len < self.window_len:
            raise InvalidInputError("fft_len must be >= window_len")
        if self.fft_len & (self.fft_len - 1):
            raise InvalidInputError("fft_len must be a power of two")

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


def frames_per_block(params: StftParams) -> int:
    """Frames per transform block: BLOCK_SAMPLES FFT samples, and at least
    one frame (64 frames at fft_len 1024, 16 at 4096)."""
    return max(1, BLOCK_SAMPLES // params.fft_len)


def frame_blocks(params: StftParams, n_frames: int):
    """Yield ``(start, stop)`` for each block of frames, in order; every
    block but the last holds ``frames_per_block(params)`` frames."""
    step = frames_per_block(params)
    for start in range(0, n_frames, step):
        yield start, min(start + step, n_frames)


def _forward(buf: AudioBuffer, params: StftParams, magnitudes: bool) -> np.ndarray:
    """The forward transform's one framing and FFT loop: fills a
    frames-major (n_frames, d) array one block of frames at a time, with
    each block's ``rfft`` or, for ``magnitudes``, its ``np.abs``. Frames are
    read from the samples in place; only the last frame, when it runs past
    the end, is copied and zero-padded."""
    samples = buf.samples
    if not np.all(np.isfinite(samples)):
        raise InvalidInputError("input holds NaN or Inf samples")
    if len(buf) < params.window_len:
        raise InvalidInputError(
            f"buffer has {len(buf)} samples, window needs {params.window_len}"
        )
    win_len, hop = params.window_len, params.hop
    n_frames = 1 + int(np.ceil(max(0, len(samples) - win_len) / hop))
    # the frames that fit: all of them, or all but the last
    frames = sliding_window_view(samples, win_len)[::hop]
    window = params.window()
    dtype = np.float64 if magnitudes else np.complex128
    out = np.empty((n_frames, params.n_bins), dtype=dtype)
    windowed = np.empty((min(frames_per_block(params), n_frames), win_len))
    for start, stop in frame_blocks(params, n_frames):
        block = windowed[: stop - start]
        if stop <= len(frames):
            np.multiply(frames[start:stop], window, out=block)
        else:
            block[:-1] = frames[start:]
            tail = samples[(stop - 1) * hop :]
            block[-1, : len(tail)] = tail
            block[-1, len(tail) :] = 0.0
            block *= window
        # written from rfft's result rather than through its out=, which
        # needs NumPy 2; the result is freed before the next one is taken
        spectrum = np.fft.rfft(block, n=params.fft_len, axis=1)
        if magnitudes:
            np.abs(spectrum, out=out[start:stop])
        else:
            out[start:stop] = spectrum
        del spectrum
    return out


def stft(buf: AudioBuffer, params: StftParams) -> Spectrogram:
    """Forward transform of a mono buffer, computed one block of frames at
    a time into one preallocated frames-major array."""
    return Spectrogram(_forward(buf, params, magnitudes=False).T, params, buf.sample_rate_hz)


def stft_magnitudes(buf: AudioBuffer, params: StftParams) -> np.ndarray:
    """``np.abs(stft(buf, params).values)``, bit for bit and laid out the
    same way (bins x frames, a view of a frames-major array), without the
    complex spectrum: only one block of it exists at a time, so the
    transform holds half the memory of ``stft``. For callers that read
    only |X|."""
    return _forward(buf, params, magnitudes=True).T


def _check_cola(params: StftParams) -> None:
    if params.hop * 2 != params.window_len and params.hop * 4 != params.window_len:
        raise InvalidInputError(
            "inverse needs Hann with hop = window_len/2 or window_len/4"
        )


def istft(spec: Spectrogram, mask: Callable[[int, int], np.ndarray] | None = None) -> AudioBuffer:
    """Overlap-add inverse; output length (n_frames-1)*hop + window_len.

    With ``mask`` the inverse is that of the real ratio times
    ``spec.values``: the mixture's own phases are reused without forming
    the masked spectrum, one block of frames at a time. ``mask(start,
    stop)`` returns the frames-major ratio of frames [start, stop), shaped
    (stop - start, d); it is called once per block of ``frame_blocks``, in
    order, and its result is used before the next call.
    """
    params = spec.params
    _check_cola(params)
    win_len, hop = params.window_len, params.hop
    window = params.window()
    n_frames = spec.n_frames
    R = win_len // hop
    # the output as rows of one hop: frame f adds its piece r to row f + r
    out = np.zeros((n_frames + R - 1, hop))
    if mask is not None:
        masked = np.empty((min(frames_per_block(params), n_frames), params.n_bins), complex)
    for start, stop in frame_blocks(params, n_frames):
        block = spec.values[:, start:stop].T
        if mask is not None:
            block = np.multiply(block, mask(start, stop), out=masked[: stop - start])
        frames = np.fft.irfft(block, n=params.fft_len, axis=1)[:, :win_len]
        frames *= window
        pieces = frames.reshape(stop - start, R, hop)
        # r from R-1 down to 0 adds each row's terms in increasing frame
        # order, the order of a frame-by-frame overlap-add
        for r in range(R - 1, -1, -1):
            out[start + r : stop + r] += pieces[:, r]
        del frames, pieces  # freed before the next block's inverse
    _normalize(out, (window**2).reshape(R, hop), n_frames)
    return AudioBuffer(out.ravel(), spec.sample_rate_hz)


def _normalize(rows: np.ndarray, wsq: np.ndarray, n_frames: int) -> None:
    """Divide the overlap-add rows by their window-power sums, in place.

    Row j's sum adds the window-square pieces ``wsq[j - f]`` of the frames
    f that cover it, in increasing f. Every interior row, covered by all R
    frames, has the same sum, so only the R - 1 head rows, one interior
    row and the R - 1 tail rows are formed. The sum is floored: at the
    very edges it decays to zero, and dividing by it would blow up frames
    whose magnitudes were modified; the floor tapers those samples instead.
    """
    R = wsq.shape[0]

    def power(j):
        total = np.zeros(rows.shape[1])
        for f in range(max(0, j - R + 1), min(n_frames, j + 1)):
            total += wsq[j - f]
        return np.maximum(total, 1e-2)

    for j in (*range(R - 1), *range(max(n_frames, R - 1), len(rows))):
        rows[j] /= power(j)
    if n_frames >= R:
        rows[R - 1 : n_frames] /= power(R - 1)


def export_pgm(magnitudes: np.ndarray, path) -> None:
    """Write magnitudes as an 8-bit P5 PGM, log-scaled relative to the max.

    Each step runs in place on one float copy of the input, so the call
    holds that copy and the uint8 image beside the input."""
    floor_db = -80.0  # black; the max is white
    mags = np.asarray(magnitudes, dtype=np.float64)
    peak = mags.max()
    if peak <= 0:
        pix = np.zeros(mags.shape, dtype=np.uint8)
    else:
        db = np.divide(mags, peak)
        with np.errstate(divide="ignore"):
            np.log10(db, out=db)
        db *= 20.0
        np.maximum(db, floor_db, out=db)
        db -= floor_db
        db /= -floor_db
        db *= 255.0
        np.rint(db, out=db)
        pix = db.astype(np.uint8, order="C")
    d, n = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {d}\n255\n".encode("ascii"))
        fh.write(pix.data)


def export_csv(magnitudes: np.ndarray, path) -> None:
    """Write magnitudes as CSV, one row per frequency bin."""
    np.savetxt(path, np.asarray(magnitudes), delimiter=",", fmt="%.12g")
