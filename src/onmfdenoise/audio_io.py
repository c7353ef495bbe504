"""Mono WAV reading/writing and synthetic test-signal generation.

All audio inside the package lives in float64 amplitudes in [-1, 1];
the 16-bit PCM writer is the only quantization point.

``read_wav`` reads little-endian RIFF/WAVE files holding integer PCM at
8 bits (unsigned), 16, 24 or 32 bits (a narrower depth such as 12 bits
stored in the next whole byte), or IEEE float at 32 or 64 bits, either
as plain format tags or under ``WAVE_FORMAT_EXTENSIBLE``, with any
number of channels (averaged to mono). Chunks other than
``fmt `` and ``data`` are skipped. Anything else, including big-endian
RIFX and RF64, raises ``InvalidInputError``. ``write_wav`` writes
one layout: a 44-byte header and 16-bit PCM mono samples.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, check_integers

__all__ = [
    "AudioBuffer",
    "SynthConfig",
    "read_wav",
    "write_wav",
    "synth_mixture",
]

# samples per block of the block-wise loops: write_wav quantizes this many
# at a time, and a transform block is this many FFT samples
# (stft.frames_per_block; the stft docstring has the sweep that chose it)
BLOCK_SAMPLES = 2**15


@dataclass(frozen=True)
class AudioBuffer:
    """Mono sample sequence plus its sample rate. Samples that are not one
    real row (a 2-d array, a scalar or complex values) and a rate that is
    not an integer >= 1 raise ``InvalidInputError``."""

    samples: np.ndarray  # float64, shape (n,)
    sample_rate_hz: int

    def __post_init__(self):
        check_integers(self, sample_rate_hz=1)
        samples = np.asarray(self.samples)
        if samples.dtype.kind == "c":
            raise InvalidInputError(f"samples must be real, got {samples.dtype}")
        object.__setattr__(self, "samples", np.asarray(samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise InvalidInputError(f"samples must be one-dimensional, got shape {self.samples.shape}")

    def __len__(self):
        return self.samples.shape[0]


# Full-scale divisors per on-disk dtype; 24-bit PCM arrives as int32.
_INT_SCALE = {
    np.dtype(np.uint8): 128.0,
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# sample dtype by (format tag, bytes per sample); 3-byte PCM is widened to int32
_DTYPES = {
    (_PCM, 1): np.dtype("u1"),
    (_PCM, 2): np.dtype("<i2"),
    (_PCM, 3): np.dtype("<i4"),
    (_PCM, 4): np.dtype("<i4"),
    (_FLOAT, 4): np.dtype("<f4"),
    (_FLOAT, 8): np.dtype("<f8"),
}
# KSDATAFORMAT_SUBTYPE_* GUID after its leading 4-byte format tag (RFC 2361)
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _parse_fmt(body) -> tuple[int, int, np.dtype, int]:
    """(sample rate, channels, sample dtype, bytes per sample) of a fmt chunk."""
    if len(body) < 16:
        raise InvalidInputError(f"fmt chunk of {len(body)} bytes, need 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or body[28:40] != _GUID_TAIL:
            raise InvalidInputError("unknown WAVE_FORMAT_EXTENSIBLE sub-format")
        tag = struct.unpack_from("<I", body, 24)[0]
    width = (bits + 7) // 8
    dtype = _DTYPES.get((tag, width))
    if dtype is None or (tag == _FLOAT and bits != 8 * width):
        raise InvalidInputError(f"unsupported format tag {tag} at {bits} bits")
    if channels == 0 or block_align != channels * width:
        raise InvalidInputError(
            f"block align {block_align} for {channels} channels of {width} bytes"
        )
    if rate == 0:
        raise InvalidInputError("sample rate is 0")
    return rate, channels, dtype, width


def _parse_wave(raw: memoryview) -> tuple[int, int, np.ndarray]:
    """(sample rate, channels, on-disk samples) of a RIFF/WAVE image.

    Walks the chunks from the start, skipping unknown ones with their pad
    byte, up to the first data chunk. A data chunk cut short by the end of
    the file keeps its whole frames.
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise InvalidInputError(
            f"not a little-endian RIFF/WAVE file: {bytes(raw[:4])!r}"
        )
    fmt = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        size = struct.unpack_from("<I", raw, pos + 4)[0]
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = _parse_fmt(body)
        elif cid == b"data":
            if fmt is None:
                break
            rate, channels, dtype, width = fmt
            n = len(body) // (channels * width) * channels
            if width == 3:
                wide = np.zeros((n, 4), np.uint8)
                wide[:, 1:] = np.frombuffer(body, np.uint8, 3 * n).reshape(n, 3)
                return rate, channels, wide.view(dtype).ravel()
            return rate, channels, np.frombuffer(body, dtype, n)
        pos += 8 + size + (size & 1)
    raise InvalidInputError("no data chunk" if fmt else "no fmt chunk before the data")


def read_wav(path) -> AudioBuffer:
    """Read a WAV file (see the module docstring) as mono float64 in [-1, 1].

    Multi-channel files are averaged to mono. Integer samples are scaled
    by their full-scale value; float files are taken as-is.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    try:
        rate, channels, data = _parse_wave(raw)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    if data.size == 0:
        raise InvalidInputError(f"{path}: empty data chunk")
    x = data.astype(np.float64)
    if data.dtype in _INT_SCALE:
        if data.dtype == np.dtype(np.uint8):
            x -= 128.0
        x /= _INT_SCALE[data.dtype]
    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
    return AudioBuffer(samples=x, sample_rate_hz=rate)


def write_wav(buf: AudioBuffer, path) -> None:
    """Write a buffer as 16-bit PCM mono, clamping samples to [-1, 1]
    (so ±inf write as full scale). A NaN sample raises
    ``InvalidInputError`` naming its index, before the file is opened, and
    so does a rate whose 2 * rate overflows 32 bits."""
    n = len(buf)
    if n == 0:
        raise InvalidInputError("cannot write an empty buffer")
    if 2 * n > 0xFFFFFFFF - 36:
        raise InvalidInputError("buffer too long for a RIFF file")
    rate = buf.sample_rate_hz
    if 2 * rate > 0xFFFFFFFF:
        raise InvalidInputError(f"sample rate {rate!r} Hz does not fit a WAV header")
    # quantized block by block into the payload through one float block,
    # clamped before it is scaled so no sample overflows
    q = np.empty(n, dtype="<i2")
    scaled = np.empty(min(n, BLOCK_SAMPLES))
    for start in range(0, n, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, n)
        block = scaled[: stop - start]
        np.clip(buf.samples[start:stop], -1.0, 1.0, out=block)
        if np.isnan(block.min()):  # the min is NaN when any sample is
            first = start + int(np.flatnonzero(np.isnan(block))[0])
            raise InvalidInputError(f"cannot write a NaN sample at index {first}")
        block *= 32768.0
        np.rint(block, out=block)
        np.clip(block, -32768, 32767, out=block)
        q[start:stop] = block
    del scaled, block  # freed before the file and its buffer are opened
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + q.nbytes, b"WAVE",
        b"fmt ", 16, _PCM, 1, rate, 2 * rate, 2, 16,
        b"data", q.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.data)


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a deterministic clean/noise/mixture triple.

    ``chords`` is a sequence of chords played back-to-back, each lasting
    ``segment_s`` seconds (cycled to fill the duration); a chord is a
    sequence of tone frequencies in Hz, each a unit sine. The noise is
    white Gaussian, seeded by ``seed`` and scaled to ``snr_db``.
    """

    duration_s: float
    sample_rate_hz: int = 16000
    chords: Sequence[Sequence[float]] = field(default_factory=lambda: [[440.0]])
    segment_s: float = 0.5
    amplitude: float = 0.3
    snr_db: float = 5.0
    seed: int = 0


def _render_clean(cfg: SynthConfig) -> np.ndarray:
    sr = cfg.sample_rate_hz
    n_total = int(round(cfg.duration_s * sr))
    seg_len = max(1, int(round(cfg.segment_s * sr)))
    out = np.zeros(n_total)
    pos = 0
    chord_idx = 0
    while pos < n_total:
        length = min(seg_len, n_total - pos)
        t = np.arange(length) / sr
        seg = np.zeros(length)
        for tone in cfg.chords[chord_idx % len(cfg.chords)]:
            seg += np.sin(2 * np.pi * float(tone) * t)
        out[pos : pos + length] = cfg.amplitude * seg
        pos += length
        chord_idx += 1
    return out


def synth_mixture(cfg: SynthConfig) -> tuple[AudioBuffer, AudioBuffer, AudioBuffer]:
    """Build (clean, noise, mixture) with the noise scaled to the target SNR.

    The mixture is exactly clean + noise sample-by-sample; the scaling of
    the noise achieves the requested SNR. Deterministic for a fixed seed.
    """
    check_integers(cfg, sample_rate_hz=1)
    if not (cfg.duration_s > 0):
        raise InvalidInputError("duration must be positive")
    if math.isnan(cfg.snr_db):
        raise InvalidInputError("SNR is NaN")
    clean = _render_clean(cfg)
    n_total = clean.shape[0]

    if math.isinf(cfg.snr_db) and cfg.snr_db > 0:
        noise = np.zeros(n_total)
    else:
        noise = np.random.default_rng(cfg.seed).standard_normal(n_total)
        rms_clean = np.sqrt(np.mean(clean**2))
        rms_noise = np.sqrt(np.mean(noise**2))
        if rms_noise == 0:
            raise InvalidInputError("noise source is silent")
        target_rms = rms_clean / (10.0 ** (cfg.snr_db / 20.0))
        noise *= target_rms / rms_noise

    mixture = clean + noise
    # keep the mixture inside [-1, 1] without breaking additivity
    peak = np.max(np.abs(mixture)) if n_total else 0.0
    if peak > 1.0:
        clean = clean / peak
        noise = noise / peak
        mixture = clean + noise
    sr = cfg.sample_rate_hz
    return (
        AudioBuffer(clean, sr),
        AudioBuffer(noise, sr),
        AudioBuffer(mixture, sr),
    )
