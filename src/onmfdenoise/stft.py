"""Short-time Fourier transform, its overlap-add inverse, and exporters.

Frame f covers samples [f*hop, f*hop + window_len); the tail is
zero-padded so every input sample is covered. Only non-negative
frequency bins are kept (d = fft_len/2 + 1). Reconstruction uses
overlap-add with window-square normalization, which is exact in the
interior for Hann windows at 50% or 75% overlap.

The one framing and FFT loop is ``block_spectra``, which yields the
spectra of the frames one block of ``frames_per_block(params)`` frames
(about 64 Ki samples, whatever the FFT size) at a time, windowing each
block into a fresh array that is freed as soon as its FFT returns.
``stft`` and ``stft_magnitudes`` fill a whole frames-major array from it;
``stft_magnitudes`` gives only |X|, for callers that read nothing else,
so the complex spectrum exists one block at a time.

``masked_inverse(buf, params, mask)`` resynthesizes ``ratio * X`` straight
from the samples, reusing their phases: it forms each block's spectrum
again, multiplies it in place by the block's real ratio and overlap-adds
it, so neither X nor the masked spectrum is ever held whole. The mask is
a function that forms each block's ratio when the inverse reaches it, so
no d x n mask need exist either; denoising holds the samples, the codes
and the output. ``istft`` inverts a whole ``Spectrogram``. Both inverses
share one overlap-add and one normalization, and each frees a block's
spectrum and inverse before the next block's are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer
from .errors import InvalidInputError, check_integers

__all__ = [
    "StftParams",
    "Spectrogram",
    "frames_per_block",
    "frame_blocks",
    "block_spectra",
    "stft",
    "stft_magnitudes",
    "istft",
    "masked_inverse",
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
        check_integers(self, window_len=1, hop=1, fft_len=1)
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
        """The periodic Hann window, formed once per window length and
        shared read-only."""
        return _hann(self.window_len)

    def n_frames(self, n_samples: int) -> int:
        """Frames that cover ``n_samples`` samples, the last one zero-padded."""
        return 1 + -(-max(0, n_samples - self.window_len) // self.hop)

    def check_cola(self) -> None:
        """Raise ``InvalidInputError`` unless the hop is window_len/2 or
        window_len/4, the Hann overlaps whose overlap-add the inverse
        normalizes exactly."""
        if self.hop * 2 != self.window_len and self.hop * 4 != self.window_len:
            raise InvalidInputError(
                "inverse needs Hann with hop = window_len/2 or window_len/4,"
                f" got hop {self.hop} for window_len {self.window_len}"
            )


@lru_cache(maxsize=16)  # a few window lengths per process; each array is read-only
def _hann(window_len: int) -> np.ndarray:
    # periodic Hann: exact constant overlap-add at hop = N/2 or N/4
    n = np.arange(window_len)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * n / window_len)
    window.flags.writeable = False
    return window


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


def block_spectra(
    buf: AudioBuffer, params: StftParams
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The forward transform's one framing and FFT loop.

    Checks the samples at once, then yields ``(start, stop, spectrum)`` for
    each block of ``frame_blocks``, in order: ``spectrum`` is the
    frames-major (stop - start, d) complex ``rfft`` of frames [start,
    stop), the caller's to modify. Frames are read from the samples in
    place and windowed into a fresh block, zero-padded where the last frame
    runs past the end, which is dropped once its spectrum is taken. The
    generator drops each spectrum when it resumes, so a caller that drops
    it too before asking for the next holds one block at a time: the
    windowed frames and the spectrum while it is taken, then the spectrum
    alone."""
    samples = buf.samples
    if not np.all(np.isfinite(samples)):
        raise InvalidInputError("input holds NaN or Inf samples")
    if len(buf) < params.window_len:
        raise InvalidInputError(
            f"buffer has {len(buf)} samples, window needs {params.window_len}"
        )
    return _spectra(samples, params)


def _spectra(samples: np.ndarray, params: StftParams):
    win_len, hop = params.window_len, params.hop
    n_frames = params.n_frames(len(samples))
    # the frames that fit: all of them, or all but the last
    frames = sliding_window_view(samples, win_len)[::hop]
    window = params.window()
    for start, stop in frame_blocks(params, n_frames):
        if stop <= len(frames):
            block = frames[start:stop] * window
        else:
            block = np.zeros((stop - start, win_len))
            block[:-1] = frames[start:]
            tail = samples[(stop - 1) * hop :]
            block[-1, : len(tail)] = tail
            block *= window
        # taken from rfft's result rather than through its out=, which
        # needs NumPy 2
        spectrum = np.fft.rfft(block, n=params.fft_len, axis=1)
        del block  # freed before the spectrum is handed out
        yield start, stop, spectrum
        del spectrum


def _forward(buf: AudioBuffer, params: StftParams, magnitudes: bool) -> np.ndarray:
    """Fill a frames-major (n_frames, d) array from ``block_spectra``, with
    each block's spectrum or, for ``magnitudes``, its ``np.abs``."""
    spectra = block_spectra(buf, params)
    dtype = np.float64 if magnitudes else np.complex128
    out = np.empty((params.n_frames(len(buf)), params.n_bins), dtype=dtype)
    for start, stop, spectrum in spectra:
        if magnitudes:
            np.abs(spectrum, out=out[start:stop])
        else:
            out[start:stop] = spectrum
        del spectrum  # freed before the next block's is taken
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


def istft(spec: Spectrogram) -> AudioBuffer:
    """Overlap-add inverse; output length (n_frames-1)*hop + window_len."""
    params = spec.params
    params.check_cola()
    rows = _rows(params, spec.n_frames)
    for start, stop in frame_blocks(params, spec.n_frames):
        _overlap_add(rows, start, spec.values[:, start:stop].T, params)
    return _normalized(rows, params, spec.n_frames, spec.sample_rate_hz)


def masked_inverse(
    buf: AudioBuffer, params: StftParams, mask: Callable[[int, int], np.ndarray]
) -> AudioBuffer:
    """``istft`` of the real ratio times ``stft(buf, params).values``, bit
    for bit, formed from the samples: each block's spectrum is taken again
    by ``block_spectra`` and multiplied by its ratio in place, so the
    samples' own phases are reused and no d x n array is made.

    ``mask(start, stop)`` returns the frames-major ratio of frames [start,
    stop), shaped (stop - start, d); it is called once per block of
    ``frame_blocks``, in order, after the block's spectrum is taken. A hop
    that is not window_len/2 or window_len/4 raises ``InvalidInputError``
    before any transform."""
    params.check_cola()
    spectra = block_spectra(buf, params)
    n_frames = params.n_frames(len(buf))
    rows = _rows(params, n_frames)
    for start, stop, spectrum in spectra:
        spectrum *= mask(start, stop)
        _overlap_add(rows, start, spectrum, params)
        del spectrum  # freed before the next block's is taken
    return _normalized(rows, params, n_frames, buf.sample_rate_hz)


def _rows(params: StftParams, n_frames: int) -> np.ndarray:
    # the output as rows of one hop: frame f adds its piece r to row f + r
    return np.zeros((n_frames + params.window_len // params.hop - 1, params.hop))


def _overlap_add(rows: np.ndarray, start: int, block: np.ndarray, params: StftParams) -> None:
    """Inverse-transform the frames-major spectra of frames [start, start +
    len(block)), window them and add them into the output rows."""
    win_len, hop = params.window_len, params.hop
    R, m = win_len // hop, len(block)
    frames = np.fft.irfft(block, n=params.fft_len, axis=1)[:, :win_len]
    frames *= params.window()
    pieces = frames.reshape(m, R, hop)
    # r from R-1 down to 0 adds each row's terms in increasing frame
    # order, the order of a frame-by-frame overlap-add
    for r in range(R - 1, -1, -1):
        rows[start + r : start + m + r] += pieces[:, r]


def _normalized(rows: np.ndarray, params: StftParams, n_frames: int, rate: int) -> AudioBuffer:
    """Divide the overlap-add rows by their window-power sums, in place,
    and return them as one signal.

    Row j's sum adds the window-square pieces ``wsq[j - f]`` of the frames
    f that cover it, in increasing f. Every interior row, covered by all R
    frames, has the same sum, so only the R - 1 head rows, one interior
    row and the R - 1 tail rows are formed. The sum is floored: at the
    very edges it decays to zero, and dividing by it would blow up frames
    whose magnitudes were modified; the floor tapers those samples instead.
    """
    R = params.window_len // params.hop
    wsq = (params.window() ** 2).reshape(R, params.hop)

    def power(j):
        total = np.zeros(rows.shape[1])
        for f in range(max(0, j - R + 1), min(n_frames, j + 1)):
            total += wsq[j - f]
        return np.maximum(total, 1e-2)

    for j in (*range(R - 1), *range(max(n_frames, R - 1), len(rows))):
        rows[j] /= power(j)
    if n_frames >= R:
        rows[R - 1 : n_frames] /= power(R - 1)
    return AudioBuffer(rows.ravel(), rate)


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
