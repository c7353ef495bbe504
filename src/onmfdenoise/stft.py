"""Short-time Fourier transform, its masked overlap-add inverse, and exporters.

Frame f covers samples [f*hop, f*hop + window_len); the tail is
zero-padded so every input sample is covered. Only non-negative
frequency bins are kept (d = fft_len/2 + 1). Reconstruction uses
overlap-add with window-square normalization, which is exact in the
interior for Hann windows at 50% or 75% overlap.

The one framing and FFT loop is ``block_spectra``, which yields the
spectra of the frames one block of ``frames_per_block(params)`` frames
(``audio_io.BLOCK_SAMPLES``, 32 Ki FFT samples, whatever the FFT size) at
a time, windowing each block into a fresh array that is freed as soon as
its FFT returns. The block size trades memory for time only: each frame's
``rfft`` is its own, so |X| is the same bits at any size. From 2**13 to
2**17 FFT samples, a warmed-up ``denoise`` at 4096/1024 with 50 + 10
atoms held 0.81, 0.97, 1.19, 1.72 and 2.78 MiB (tracemalloc) on a 5 s
mixture, and took 336, 292, 256, 250 and 237 ms on a 2-minute one (one
BLAS thread, 2 cores, medians of 8): 2**15 holds 0.53 MiB less than
2**16 for 2-6% more time over two runs, and 2**14 costs 11-14% more again.
The one whole-file transform, ``stft``, fills a frames-major |X| from it,
so the complex spectrum exists one block at a time.

The one inverse, ``masked_inverse(buf, params, mask)``, resynthesizes
``ratio * X`` straight from the samples, reusing their phases: it forms
each block's spectrum again, multiplies it in place by the block's real
ratio and overlap-adds it, so neither X nor the masked spectrum is ever
held whole. The mask is a function that forms each block's ratio when the
inverse reaches it, so no d x n mask need exist either; denoising holds
the samples, the codes and the output. The inverse frees a block's
spectrum and its inverse before the next block's are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import BLOCK_SAMPLES, AudioBuffer
from .errors import InvalidInputError, check_integers

__all__ = [
    "StftParams",
    "Spectrogram",
    "frames_per_block",
    "frame_blocks",
    "block_spectra",
    "stft",
    "masked_inverse",
    "export_pgm",
    "export_csv",
]

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
    """Magnitude STFT |X|, bins x frames.

    ``magnitudes`` is the transposed view of the frames-major array that
    ``stft`` fills, so each frame's bins are contiguous in memory.
    """

    magnitudes: np.ndarray  # (d, n), real

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]


def frames_per_block(params: StftParams) -> int:
    """Frames per transform block: BLOCK_SAMPLES FFT samples, and at least
    one frame (32 frames at fft_len 1024, 8 at 4096)."""
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


def stft(buf: AudioBuffer, params: StftParams) -> Spectrogram:
    """The magnitude spectrogram of a mono buffer: the ``np.abs`` of each
    block of ``block_spectra``, filled into one preallocated frames-major
    array, so only one block of the complex spectrum exists at a time."""
    spectra = block_spectra(buf, params)
    out = np.empty((params.n_frames(len(buf)), params.n_bins))
    for start, stop, spectrum in spectra:
        np.abs(spectrum, out=out[start:stop])
        del spectrum  # freed before the next block's is taken
    return Spectrogram(out.T)


def masked_inverse(
    buf: AudioBuffer, params: StftParams, mask: Callable[[int, int], np.ndarray]
) -> AudioBuffer:
    """The overlap-add inverse of the real ratio times the complex STFT X
    of ``buf``, as long as the frames cover, (n_frames - 1) * hop +
    window_len samples. X is formed from the samples: each block's spectrum
    is taken again by ``block_spectra`` and multiplied by its ratio in
    place, so the samples' own phases are reused and no d x n array is made.

    ``mask(start, stop)`` returns the frames-major ratio of frames [start,
    stop), shaped (stop - start, d); it is called once per block of
    ``frame_blocks``, in order, after the block's spectrum is taken. A hop
    that is not window_len/2 or window_len/4 raises ``InvalidInputError``
    before any transform."""
    params.check_cola()
    spectra = block_spectra(buf, params)
    n_frames = params.n_frames(len(buf))
    # the output as rows of one hop: frame f adds its piece r to row f + r
    rows = np.zeros((n_frames + params.window_len // params.hop - 1, params.hop))
    for start, stop, spectrum in spectra:
        spectrum *= mask(start, stop)
        _overlap_add(rows, start, spectrum, params)
        del spectrum  # freed before the next block's is taken
    return _normalized(rows, params, n_frames, buf.sample_rate_hz)


def _overlap_add(rows: np.ndarray, start: int, block: np.ndarray, params: StftParams) -> None:
    """Inverse-transform the frames-major spectra of frames [start, start +
    len(block)), window them and add them into the output rows."""
    win_len, hop = params.window_len, params.hop
    R, window = win_len // hop, params.window()
    frames = np.fft.irfft(block, n=params.fft_len, axis=1)[:, :win_len]
    # frame by frame, so each row's terms are added in increasing frame
    # order, and each multiply and add has contiguous operands of one
    # shape, for which numpy takes no ufunc buffer (64 KiB a call)
    for i, frame in enumerate(frames):
        frame *= window
        rows[start + i : start + i + R] += frame.reshape(R, hop)


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
