import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from onmfdenoise import audio_io
from onmfdenoise.audio_io import (
    BLOCK_SAMPLES,
    AudioBuffer,
    SynthConfig,
    read_wav,
    synth_mixture,
    write_wav,
)
from onmfdenoise.errors import InvalidInputError
from tests.conftest import peak_bytes


def test_read_int16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 16000, np.array([0, 16384, -16384], dtype=np.int16))
    buf = read_wav(path)
    assert buf.sample_rate_hz == 16000
    assert np.allclose(buf.samples, [0.0, 0.5, -0.5], atol=1 / 32768)


def test_read_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    data = np.array([[1.0, 0.0], [0.5, -0.5]], dtype=np.float32)
    wavfile.write(path, 8000, data)
    buf = read_wav(path)
    assert np.allclose(buf.samples, [0.5, 0.0])


def test_read_float32(tmp_path):
    path = tmp_path / "f.wav"
    wavfile.write(path, 8000, np.array([0.25, -0.75], dtype=np.float32))
    assert np.allclose(read_wav(path).samples, [0.25, -0.75])


def test_read_missing_file():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/never.wav")


def test_read_empty_data_chunk(tmp_path):
    path = tmp_path / "empty.wav"
    wavfile.write(path, 8000, np.zeros(0, dtype=np.int16))
    with pytest.raises(InvalidInputError, match="empty data chunk"):
        read_wav(path)


def test_read_not_a_wav(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not RIFF data at all")
    with pytest.raises(InvalidInputError, match="not a little-endian RIFF/WAVE file"):
        read_wav(path)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-1, 1, 1000), 16000)
    path = tmp_path / "rt.wav"
    write_wav(buf, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - buf.samples)) <= 2.0**-15


def test_write_clamps_overrange(tmp_path):
    path = tmp_path / "c.wav"
    # samples too large to scale without overflow clamp with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_wav(AudioBuffer(np.array([1.5, -2.0, 1e308, -1e308, np.inf]), 8000), path)
    _, raw = wavfile.read(path)
    assert raw.tolist() == [32767, -32768, 32767, -32768, 32767]


@pytest.mark.parametrize(
    "samples", [np.zeros((300, 2)), np.float64(0.5), np.zeros((0, 1))], ids=["2-d", "0-d", "2-d empty"]
)
def test_buffer_rejects_samples_that_are_not_one_dimensional(samples):
    # stft, denoise, write_wav and evaluate each take the samples as one row
    with pytest.raises(InvalidInputError, match=re.escape(f"got shape {np.shape(samples)}")):
        AudioBuffer(samples, 16000)


@pytest.mark.parametrize(
    "rate", [float("nan"), "16000", 16000.5, 16000.0, True, 0, -16000], ids=repr
)
def test_buffer_rejects_a_rate_that_is_not_a_positive_integer(rate):
    # a typed error, never a bare TypeError from comparing a string, and
    # no NaN rate kept
    with pytest.raises(InvalidInputError, match="sample_rate_hz must be"):
        AudioBuffer(np.zeros(4), rate)


def test_buffer_keeps_a_numpy_integer_rate_as_an_int():
    buf = AudioBuffer(np.zeros(4), np.int32(16000))
    assert type(buf.sample_rate_hz) is int and buf.sample_rate_hz == 16000


@pytest.mark.parametrize(
    "samples", [np.zeros(4, complex) + 1j, [0.5 + 0j, 1.0], np.zeros(3, np.complex64)],
    ids=["complex128", "complex list", "complex64"],
)
def test_buffer_rejects_complex_samples(samples):
    # converting to float64 would drop the imaginary part with only a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="samples must be real"):
            AudioBuffer(samples, 16000)


def test_write_empty_buffer_rejected(tmp_path):
    with pytest.raises(InvalidInputError, match="cannot write an empty buffer"):
        write_wav(AudioBuffer(np.zeros(0), 8000), tmp_path / "e.wav")


@pytest.mark.parametrize("rate", [2**31, 3_000_000_000])
def test_write_rejects_a_rate_the_header_cannot_hold(tmp_path, rate):
    # the header stores the rate and the byte rate 2 * rate as 32-bit
    # integers; a rate that is not an integer never reaches it
    # (test_buffer_rejects_a_rate_that_is_not_a_positive_integer)
    path = tmp_path / "r.wav"
    with pytest.raises(InvalidInputError, match="sample rate"):
        write_wav(AudioBuffer(np.zeros(4), rate), path)
    assert not path.exists()


def test_write_keeps_the_largest_rate_the_header_holds(tmp_path):
    path = tmp_path / "r.wav"
    write_wav(AudioBuffer(np.zeros(4), 2**31 - 1), path)
    assert read_wav(path).sample_rate_hz == 2**31 - 1


def test_synth_snr_accuracy():
    cfg = SynthConfig(duration_s=1.0, chords=[[440.0]], amplitude=0.5, snr_db=0.0, seed=1)
    clean, noise, mixture = synth_mixture(cfg)
    snr = 10 * np.log10(np.mean(clean.samples**2) / np.mean(noise.samples**2))
    assert abs(snr - 0.0) <= 0.1
    assert np.array_equal(mixture.samples, clean.samples + noise.samples)


def test_synth_infinite_snr_is_clean():
    cfg = SynthConfig(duration_s=0.5, snr_db=np.inf, seed=2)
    clean, noise, mixture = synth_mixture(cfg)
    assert np.array_equal(mixture.samples, clean.samples)
    assert not np.any(noise.samples)


def test_synth_deterministic():
    cfg = SynthConfig(duration_s=0.7, snr_db=5.0, seed=42)
    a = synth_mixture(cfg)
    b = synth_mixture(cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)


@pytest.mark.parametrize(
    "bad",
    [
        dict(duration_s=0.0),
        dict(duration_s=-1.0),
        dict(duration_s=1.0, snr_db=float("nan")),
    ],
)
def test_synth_invalid_config(bad):
    message = "SNR is NaN" if "snr_db" in bad else "duration must be positive"
    with pytest.raises(InvalidInputError, match=message):
        synth_mixture(SynthConfig(**bad))


@pytest.mark.parametrize("rate", [float("nan"), "16000", 16000.5, 16000.0, 0, True], ids=repr)
def test_synth_rejects_a_rate_that_is_not_a_positive_integer(monkeypatch, rate):
    # checked before anything is rendered
    def render(cfg):
        raise AssertionError("rendered before the rate was checked")

    monkeypatch.setattr(audio_io, "_render_clean", render)
    with pytest.raises(InvalidInputError, match="sample_rate_hz must be"):
        audio_io.synth_mixture(SynthConfig(duration_s=0.1, sample_rate_hz=rate))


def test_synth_additivity_after_peak_normalization():
    # loud config forces the joint rescale; additivity must survive it
    cfg = SynthConfig(duration_s=0.5, amplitude=0.9, snr_db=0.0, seed=3)
    clean, noise, mixture = synth_mixture(cfg)
    assert np.max(np.abs(mixture.samples)) <= 1.0 + 1e-12
    assert np.allclose(mixture.samples, clean.samples + noise.samples, atol=1e-15)


# --- RIFF/WAVE reader and writer, with scipy.io.wavfile as the oracle -------

# KSDATAFORMAT_SUBTYPE_* GUID after its leading 4-byte format tag (RFC 2361)
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(cid, payload):
    pad = b"\x00" if len(payload) % 2 else b""
    return cid + struct.pack("<I", len(payload)) + payload + pad


def fmt_chunk(tag=1, channels=1, rate=8000, bits=16, block_align=None, extra=b""):
    if block_align is None:
        block_align = channels * ((bits + 7) // 8)
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, bits)
    return chunk(b"fmt ", body + extra)


def extensible_fmt(sub_tag, channels, bits, tail=GUID_TAIL):
    extra = struct.pack("<HHII", 22, bits, (1 << channels) - 1, sub_tag) + tail
    return fmt_chunk(0xFFFE, channels, 8000, bits, extra=extra)


def riff(*chunks, form=b"RIFF"):
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


def int24_bytes(values):
    return b"".join(struct.pack("<i", int(v))[:3] for v in values)


def as_read_wav_samples(data):
    """The mapping read_wav documents, applied to an array of on-disk samples."""
    x = data.astype(np.float64)
    if data.dtype == np.uint8:
        x -= 128.0
    if data.dtype.kind in "iu":
        x /= {1: 128.0, 2: 32768.0, 4: 2147483648.0}[data.dtype.itemsize]
    return x.mean(axis=1) if x.ndim == 2 else x


def oracle_samples(path):
    return as_read_wav_samples(wavfile.read(path)[1])


def random_samples(dtype, n, channels, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n,) if channels == 1 else (n, channels)
    if np.dtype(dtype).kind == "f":
        return rng.uniform(-1.0, 1.0, shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, shape, endpoint=True).astype(dtype)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
def test_read_matches_scipy_written_files(tmp_path, dtype, channels):
    data = random_samples(dtype, 101, channels)
    path = tmp_path / "w.wav"
    wavfile.write(path, 22050, data)
    buf = read_wav(path)
    assert buf.sample_rate_hz == 22050
    assert np.array_equal(buf.samples, as_read_wav_samples(data))


def test_read_24_bit_pcm(tmp_path):
    frames = np.array([[0, -1], [2**23 - 1, -(2**23)], [12345, -54321]])
    path = tmp_path / "24.wav"
    data = chunk(b"data", int24_bytes(frames.ravel()))
    path.write_bytes(riff(fmt_chunk(channels=2, bits=24), data))
    samples = read_wav(path).samples
    assert np.array_equal(samples, (frames / 2.0**23).mean(axis=1))
    assert np.array_equal(samples, oracle_samples(path))


@pytest.mark.parametrize(
    "sub_tag, bits, data",
    [
        (1, 16, np.array([[0, 16384], [-32768, 32767]], dtype="<i2")),
        (3, 32, np.array([[0.25, -0.5], [1.0, -1.0]], dtype="<f4")),
    ],
)
def test_read_wave_format_extensible(tmp_path, sub_tag, bits, data):
    path = tmp_path / "ext.wav"
    path.write_bytes(riff(extensible_fmt(sub_tag, 2, bits), chunk(b"data", data.tobytes())))
    samples = read_wav(path).samples
    assert np.array_equal(samples, as_read_wav_samples(data))
    assert np.array_equal(samples, oracle_samples(path))


def test_read_skips_odd_sized_chunk_before_data(tmp_path):
    data = np.array([1, -2, 300, -400, 5], dtype="<i2")
    path = tmp_path / "list.wav"
    list_chunk = chunk(b"LIST", b"INFOabc")
    path.write_bytes(riff(fmt_chunk(), list_chunk, chunk(b"data", data.tobytes())))
    samples = read_wav(path).samples
    assert np.array_equal(samples, data / 32768.0)
    assert np.array_equal(samples, oracle_samples(path))


def test_write_is_byte_identical_to_scipy(tmp_path):
    q = random_samples(np.int16, 999, 1, seed=3)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    write_wav(AudioBuffer(q / 32768.0, 44100), ours)
    wavfile.write(theirs, 44100, q)
    assert ours.read_bytes() == theirs.read_bytes()
    assert len(ours.read_bytes()) == 44 + 2 * q.size


@pytest.mark.parametrize("seed", range(4))
def test_write_quantizes_by_rounding_then_clamping(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 20000
    # exact half-LSB ties, values past full scale and the full-scale edges
    ties = (rng.integers(-32770, 32770, n) + 0.5) / 32768.0
    x = np.concatenate(
        [rng.uniform(-1.5, 1.5, n), ties, [1.0, -1.0, 32767.5 / 32768, -32768.5 / 32768]]
    )
    rng.shuffle(x)
    path = tmp_path / "q.wav"
    peak, _ = peak_bytes(lambda: write_wav(AudioBuffer(x, 16000), path))
    want = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    assert path.read_bytes()[44:] == want.tobytes()
    # one float temporary beside the 16-bit output
    assert peak <= 10 * x.size + 4096


B = BLOCK_SAMPLES


# each side of the first and the second block seam, and ragged tails
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 5 * B + 3, 10 * B + 3])
def test_write_quantizes_block_by_block_into_the_payload(tmp_path, n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.5, 1.5, n)
    x[rng.integers(0, n, 8)] = np.inf
    x[rng.integers(0, n, 8)] = -np.inf
    path = tmp_path / "q.wav"
    peak, _ = peak_bytes(lambda: write_wav(AudioBuffer(x, 16000), path))
    want = np.clip(np.rint(np.clip(x, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")
    assert path.read_bytes()[44:] == want.tobytes()
    # the 16-bit payload and one block of BLOCK_SAMPLES float samples
    assert peak <= 2 * n + 8 * min(n, BLOCK_SAMPLES) + 4096


@pytest.mark.parametrize("first", [1, 2**16 + 3])
@pytest.mark.parametrize("existing", [False, True])
def test_write_rejects_nan_before_opening_the_file(tmp_path, first, existing):
    x = np.full(2**17, 0.25)
    x[[first, first + 1, -1]] = np.nan
    x[0], x[2] = np.inf, -np.inf
    path = tmp_path / "nan.wav"
    if existing:
        path.write_bytes(b"an earlier file")
    with pytest.raises(InvalidInputError, match=rf"NaN sample at index {first}\b"):
        write_wav(AudioBuffer(x, 16000), path)
    if existing:
        assert path.read_bytes() == b"an earlier file"
    else:
        assert not path.exists()


def valid_int16_file():
    return riff(fmt_chunk(), chunk(b"data", np.arange(-8, 8, dtype="<i2").tobytes()))


ZEROS = chunk(b"data", bytes(8))


@pytest.mark.parametrize(
    ("raw", "message"),
    [
        pytest.param(
            valid_int16_file()[:30], "fmt chunk of 10 bytes, need 16", id="cut-inside-header"
        ),
        pytest.param(
            valid_int16_file()[:10],
            "not a little-endian RIFF/WAVE file: b'RIFF'",
            id="cut-inside-riff-header",
        ),
        pytest.param(riff(ZEROS), "no fmt chunk before the data", id="no-fmt-chunk"),
        pytest.param(riff(fmt_chunk()), "no data chunk", id="no-data-chunk"),
        pytest.param(
            riff(chunk(b"fmt ", struct.pack("<HHIIH", 1, 1, 8000, 16000, 2)), ZEROS),
            "fmt chunk of 14 bytes, need 16",
            id="short-fmt-chunk",
        ),
        pytest.param(
            riff(fmt_chunk(channels=2, block_align=2), ZEROS),
            "block align 2 for 2 channels of 2 bytes",
            id="block-align",
        ),
        pytest.param(
            riff(fmt_chunk(channels=0), ZEROS),
            "block align 0 for 0 channels of 2 bytes",
            id="zero-channels",
        ),
        pytest.param(riff(fmt_chunk(rate=0), ZEROS), "sample rate is 0", id="zero-rate"),
        pytest.param(
            riff(fmt_chunk(tag=2), ZEROS), "unsupported format tag 2 at 16 bits", id="adpcm-tag"
        ),
        pytest.param(
            riff(fmt_chunk(bits=64), ZEROS), "unsupported format tag 1 at 64 bits", id="64-bit-pcm"
        ),
        pytest.param(
            riff(fmt_chunk(tag=3, bits=16), ZEROS),
            "unsupported format tag 3 at 16 bits",
            id="16-bit-float",
        ),
        pytest.param(
            riff(fmt_chunk(bits=0, block_align=0), ZEROS),
            "unsupported format tag 1 at 0 bits",
            id="0-bit",
        ),
        pytest.param(
            riff(extensible_fmt(1, 1, 16, tail=bytes(12)), ZEROS),
            "unknown WAVE_FORMAT_EXTENSIBLE sub-format",
            id="unknown-extensible-guid",
        ),
        pytest.param(
            riff(fmt_chunk(0xFFFE, extra=struct.pack("<H", 0)), ZEROS),
            "unknown WAVE_FORMAT_EXTENSIBLE sub-format",
            id="extensible-without-extension",
        ),
        pytest.param(
            valid_int16_file().replace(b"RIFF", b"RIFX", 1),
            "not a little-endian RIFF/WAVE file: b'RIFX'",
            id="big-endian-rifx",
        ),
        pytest.param(
            riff(fmt_chunk(), chunk(b"data", b"\x00")),
            "empty data chunk",
            id="data-shorter-than-a-frame",
        ),
    ],
)
def test_malformed_files_raise_unsupported_format(tmp_path, raw, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        read_wav(path)


VALID_FILES = [
    valid_int16_file(),
    riff(fmt_chunk(tag=3, channels=2, bits=32), chunk(b"fact", struct.pack("<I", 3)),
         chunk(b"data", np.linspace(-1, 1, 6, dtype="<f4").tobytes())),
    riff(
        fmt_chunk(bits=24), chunk(b"LIST", b"odd"), chunk(b"data", int24_bytes(range(-3, 4)))
    ),
    riff(extensible_fmt(1, 2, 32), chunk(b"data", np.arange(8, dtype="<i4").tobytes())),
    riff(fmt_chunk(bits=8, channels=3), chunk(b"data", bytes(range(0, 256, 8)[:9]))),
]


@pytest.fixture(scope="module")
def scratch_wav(tmp_path_factory):
    return tmp_path_factory.mktemp("prop") / "x.wav"


def reads_or_rejects(path, raw):
    """read_wav gives a non-empty buffer or InvalidInputError, nothing else."""
    path.write_bytes(raw)
    try:
        buf = read_wav(path)
    except InvalidInputError:
        return
    assert isinstance(buf, AudioBuffer) and len(buf) > 0


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_truncated_files_read_or_raise_unsupported_format(scratch_wav, data):
    raw = data.draw(st.sampled_from(VALID_FILES))
    reads_or_rejects(scratch_wav, raw[: data.draw(st.integers(0, len(raw)))])


@settings(max_examples=500, deadline=None, database=None)
@given(st.data())
def test_corrupted_header_bytes_read_or_raise_unsupported_format(scratch_wav, data):
    raw = bytearray(data.draw(st.sampled_from(VALID_FILES)))
    i = data.draw(st.integers(0, raw.index(b"data") + 7))
    raw[i] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
    reads_or_rejects(scratch_wav, bytes(raw))
