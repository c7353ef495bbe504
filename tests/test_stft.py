import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onmfdenoise import stft as stft_module
from onmfdenoise.audio_io import AudioBuffer
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.stft import (
    StftParams,
    block_spectra,
    export_csv,
    export_pgm,
    frame_blocks,
    frames_per_block,
    masked_inverse,
    stft,
)
from tests.conftest import peak_bytes, unit_mask, whole_matrix_istft, whole_matrix_stft

SR = 16000


def covered_length(params, n_frames):
    return (n_frames - 1) * params.hop + params.window_len


def blocks_of(mask):
    """A whole d x n mask array as the block function ``masked_inverse`` takes."""
    return lambda a, b: mask[:, a:b].T


def complex_stft(x, params):
    """The complex STFT of ``x``, bins x frames, from ``block_spectra``'s blocks."""
    return np.concatenate([s for _, _, s in block_spectra(AudioBuffer(x, SR), params)]).T


def test_param_validation():
    with pytest.raises(InvalidInputError, match="hop must not exceed window_len"):
        StftParams(window_len=512, hop=1024)
    with pytest.raises(InvalidInputError, match="fft_len must be a power of two"):
        StftParams(window_len=1000, hop=500, fft_len=1000)  # not a power of two
    with pytest.raises(InvalidInputError, match="fft_len must be >= window_len"):
        StftParams(window_len=1024, hop=512, fft_len=512)


@pytest.mark.parametrize("field", ["window_len", "hop", "fft_len"])
@pytest.mark.parametrize("value", [1024.0, True, "1024"])
def test_integer_fields_reject_other_types_naming_the_field(field, value):
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got"):
        StftParams(**{field: value})


@pytest.mark.parametrize("field", ["window_len", "hop"])
def test_non_positive_lengths_are_rejected_naming_the_field(field):
    with pytest.raises(InvalidInputError, match=f"{field} must be >= 1, got 0"):
        StftParams(**{field: 0})


def test_numpy_integer_fields_transform_as_ints_do():
    x = AudioBuffer(np.random.default_rng(3).standard_normal(3000), SR)
    numpy_params = StftParams(np.int64(256), np.int32(128), np.uint16(512))
    assert numpy_params == StftParams(256, 128, 512)
    assert all(type(v) is int for v in vars(numpy_params).values())
    expected = stft(x, StftParams(256, 128, 512)).magnitudes
    assert stft(x, numpy_params).magnitudes.tobytes() == expected.tobytes()


def test_buffer_too_short():
    with pytest.raises(InvalidInputError, match="buffer has 100 samples, window needs 1024"):
        stft(AudioBuffer(np.zeros(100), SR), StftParams())


def test_zero_buffer_zero_magnitudes():
    spec = stft(AudioBuffer(np.zeros(4096), SR), StftParams())
    assert np.all(spec.magnitudes == 0)


def test_sine_energy_concentration():
    params = StftParams()
    b = 256  # bin-centered: f = b * sr / fft_len
    f = b * SR / params.fft_len
    n = covered_length(params, 31)
    t = np.arange(n) / SR
    spec = stft(AudioBuffer(np.sin(2 * np.pi * f * t), SR), params)
    power = spec.magnitudes**2
    for frame in range(spec.n_frames):
        col = power[:, frame]
        assert col[b - 1 : b + 2].sum() >= 0.99 * col.sum()
    # independent oracle: windowed DFT of one frame computed directly
    frame0 = np.sin(2 * np.pi * f * t[: params.window_len]) * params.window()
    oracle = np.abs(np.fft.rfft(frame0, n=params.fft_len))
    assert np.allclose(spec.magnitudes[:, 0], oracle, atol=1e-12)


def test_magnitudes_invariant_to_input_phase():
    params = StftParams()
    f = SR / 4
    n = covered_length(params, 30)
    t = np.arange(n) / SR
    m0 = stft(AudioBuffer(np.sin(2 * np.pi * f * t), SR), params).magnitudes
    m1 = stft(AudioBuffer(np.sin(2 * np.pi * f * t + 1.234), SR), params).magnitudes
    assert np.max(np.abs(m0 - m1)) <= 1e-9


@pytest.mark.parametrize("hop_div", [2, 4])
def test_round_trip_interior(hop_div):
    params = StftParams(window_len=1024, hop=1024 // hop_div, fft_len=1024)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, covered_length(params, 40))
    buf = AudioBuffer(x, SR)
    back = masked_inverse(buf, params, unit_mask(params)).samples
    lo, hi = params.window_len, len(x) - params.window_len
    assert np.max(np.abs(back[lo:hi] - x[lo:hi])) <= 1e-6


@settings(max_examples=60, deadline=None, database=None)
@given(
    log_window=st.integers(2, 9),
    hop_div=st.sampled_from([2, 4]),
    fft_mult=st.sampled_from([1, 2]),
    extra=st.integers(0, 4000),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_interior_property(log_window, hop_div, fft_mult, extra, scale, seed):
    window = 2**log_window
    params = StftParams(window_len=window, hop=window // hop_div, fft_len=fft_mult * window)
    # any length from three windows up, so the zero-padded tail varies too
    x = scale * np.random.default_rng(seed).uniform(-1, 1, 3 * window + extra)
    back = masked_inverse(AudioBuffer(x, SR), params, unit_mask(params)).samples
    assert len(back) >= len(x)
    lo, hi = window, len(x) - window
    assert np.max(np.abs(back[lo:hi] - x[lo:hi])) <= 1e-12 * scale


def test_istft_zero_magnitudes():
    # the inverse of a zero spectrum, here of silence, is silent
    params = StftParams()
    back = masked_inverse(AudioBuffer(np.zeros(4096), SR), params, unit_mask(params))
    assert not np.any(back.samples)


def test_istft_linearity_on_interior():
    params = StftParams()
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, covered_length(params, 20))
    buf = AudioBuffer(x, SR)
    a = masked_inverse(buf, params, unit_mask(params)).samples
    b = masked_inverse(buf, params, unit_mask(params, 2.0)).samples
    lo, hi = params.window_len, len(x) - params.window_len
    assert np.allclose(b[lo:hi], 2 * a[lo:hi], atol=1e-9)


def test_istft_rejects_non_cola_hop():
    params = StftParams(window_len=1024, hop=300, fft_len=1024)
    buf = AudioBuffer(np.ones(4096), SR)
    message = "inverse needs Hann with hop = window_len/2 or window_len/4, got hop 300 for window_len 1024"
    with pytest.raises(InvalidInputError, match=message):
        masked_inverse(buf, params, unit_mask(params))


def test_istft_mask_identity_zero_and_shape():
    params = StftParams()
    rng = np.random.default_rng(2)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, covered_length(params, 150)), SR)
    n_frames = params.n_frames(len(buf))
    calls = []

    def ones(start, stop):
        calls.append((start, stop))
        return np.ones((stop - start, params.n_bins))

    want = whole_matrix_istft(whole_matrix_stft(buf.samples, params), params)
    assert masked_inverse(buf, params, ones).samples.tobytes() == want.tobytes()
    # one call per block, in order, for the frames-major (stop - start, d)
    # mask: four blocks of 32 frames and one of 22
    assert calls == list(frame_blocks(params, n_frames)) and len(calls) == 5
    zeros = blocks_of(np.zeros((params.n_bins, n_frames)))
    assert not np.any(masked_inverse(buf, params, zeros).samples)


def test_istft_recovers_tonal_signal():
    # clean tonal signal, inverted with its own phases
    params = StftParams()
    n = covered_length(params, 40)
    t = np.arange(n) / SR
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    back = masked_inverse(AudioBuffer(x, SR), params, unit_mask(params)).samples
    lo, hi = params.window_len, n - params.window_len
    assert np.max(np.abs(back[lo:hi] - x[lo:hi])) <= 1e-6


# zero-padded FFT: 32 frames per block, from the FFT size, not the window
BLOCKED = StftParams(window_len=256, hop=64, fft_len=1024)
B = frames_per_block(BLOCKED)


# one frame, each side of the first and the second block seam, and a
# ragged tail past four blocks
@pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 4 * B + 1])
def test_blocked_transforms_match_whole_matrix(n_frames):
    params = BLOCKED
    rng = np.random.default_rng(n_frames)
    # a zero-padded tail: up to hop - 1 samples short of the last full frame
    short = int(rng.integers(0, params.hop)) if n_frames > 1 else 0
    x = rng.uniform(-1, 1, covered_length(params, n_frames) - short)
    X = complex_stft(x, params)
    assert stft(AudioBuffer(x, SR), params).n_frames == X.shape[1] == n_frames
    assert np.max(np.abs(X - whole_matrix_stft(x, params))) <= 1e-12
    mask = rng.random(X.shape)
    back = masked_inverse(AudioBuffer(x, SR), params, blocks_of(mask)).samples
    assert np.max(np.abs(back - whole_matrix_istft(mask * X, params))) <= 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(
    log_window=st.integers(4, 10),
    hop_div=st.sampled_from([2, 4]),
    fft_mult=st.sampled_from([1, 2]),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_blocked_inverse_is_byte_identical_to_frame_loop(
    log_window, hop_div, fft_mult, masked, seed, data
):
    window = 2**log_window
    params = StftParams(window_len=window, hop=window // hop_div, fft_len=fft_mult * window)
    # one to three blocks, or fewer frames than the 2R - 1 of a head and a tail
    n_frames = data.draw(
        st.one_of(st.integers(1, 3 * frames_per_block(params)), st.integers(1, 2 * hop_div - 2))
    )
    rng = np.random.default_rng(seed)
    # the masked inverse from samples, against the padded whole-matrix
    # transform (byte-identical to block_spectra's) masked whole, or unmasked
    short = int(rng.integers(0, params.hop)) if n_frames > 1 else 0
    x = rng.uniform(-1, 1, covered_length(params, n_frames) - short)
    X = whole_matrix_stft(x, params)
    if masked:
        mask = rng.random((params.n_bins, n_frames))
        back = masked_inverse(AudioBuffer(x, SR), params, blocks_of(mask)).samples
        want = whole_matrix_istft(mask * X, params)
    else:
        back = masked_inverse(AudioBuffer(x, SR), params, unit_mask(params)).samples
        want = whole_matrix_istft(X, params)
    assert back.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(
    log_window=st.integers(4, 10),
    hop_div=st.sampled_from([2, 4]),
    fft_mult=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stft_is_byte_identical_to_padded_whole_matrix(log_window, hop_div, fft_mult, seed, data):
    window = 2**log_window
    params = StftParams(window_len=window, hop=window // hop_div, fft_len=fft_mult * window)
    n = data.draw(st.integers(window, window + 3 * frames_per_block(params) * params.hop))
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    want = whole_matrix_stft(x, params)
    assert complex_stft(x, params).tobytes() == want.tobytes()
    assert stft(AudioBuffer(x, SR), params).magnitudes.tobytes() == np.abs(want).tobytes()


HALF = StftParams(window_len=256, hop=128, fft_len=256)


@pytest.mark.parametrize(
    "params, n_frames, short",
    [
        (HALF, 4 * frames_per_block(HALF) + 3, 37),  # hop = window/2, zero-padded last frame
        (BLOCKED, 2 * B + 5, 50),  # hop = window/4, fft_len > window_len, zero-padded last frame
        (BLOCKED, 1, 0),  # exactly one frame
        (HALF, 2 * frames_per_block(HALF), 0),  # exactly two blocks
        (HALF, frames_per_block(HALF), 0),  # exactly one block
    ],
)
def test_magnitudes_are_abs_of_stft_bit_for_bit(params, n_frames, short):
    x = np.random.default_rng(n_frames).uniform(-1, 1, covered_length(params, n_frames) - short)
    want = np.abs(whole_matrix_stft(x, params))
    mags = stft(AudioBuffer(x, SR), params).magnitudes
    assert mags.shape == want.shape == (params.n_bins, n_frames)
    assert mags.tobytes() == want.tobytes()
    assert mags.T.flags.c_contiguous  # frames-major: each frame's bins are contiguous


@pytest.mark.parametrize(
    "params", [StftParams(4096, 1024, 4096), StftParams(1024, 512, 1024), BLOCKED],
    ids=lambda p: f"{p.window_len}-{p.hop}-{p.fft_len}",
)
def test_magnitudes_do_not_depend_on_the_block_size(monkeypatch, params):
    # each frame's rfft is its own, so the block size trades memory for
    # time only
    x = AudioBuffer(np.random.default_rng(params.fft_len).uniform(-1, 1, 3 * SR), SR)
    mags = {}
    for block in (2**13, 2**15, 2**16):
        monkeypatch.setattr(stft_module, "BLOCK_SAMPLES", block)
        mags[block] = stft(x, params).magnitudes.tobytes()
    assert mags[2**13] == mags[2**15] == mags[2**16]


def test_transforms_use_numpy1_fft_signatures(monkeypatch):
    # the project supports numpy>=1.24; rfft and irfft gained out= in 2.0
    def v1(fn):
        return lambda a, n=None, axis=-1, norm=None: fn(a, n=n, axis=axis, norm=norm)

    monkeypatch.setattr(np.fft, "rfft", v1(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", v1(np.fft.irfft))
    params = StftParams(window_len=256, hop=64, fft_len=512)
    x = np.random.default_rng(0).uniform(-1, 1, covered_length(params, 70))
    X = complex_stft(x, params)
    assert np.max(np.abs(X - whole_matrix_stft(x, params))) <= 1e-12
    assert np.array_equal(stft(AudioBuffer(x, SR), params).magnitudes, np.abs(X))
    back = masked_inverse(AudioBuffer(x, SR), params, unit_mask(params)).samples
    assert back.tobytes() == whole_matrix_istft(whole_matrix_stft(x, params), params).tobytes()


def test_forward_holds_one_windowed_and_one_spectrum_block_beyond_x():
    # 76 frames at 4096/1024, the last one zero-padded: |X| is allocated
    # whole, and each block is windowed into one buffer and transformed;
    # the complex spectrum exists one block at a time
    params = StftParams(window_len=4096, hop=1024, fft_len=4096)
    x = AudioBuffer(np.random.default_rng(9).uniform(-0.5, 0.5, 5 * SR), SR)
    stft(x, params)  # the FFT's one-time plan for this size
    peak, spec = peak_bytes(lambda: stft(x, params))
    m = frames_per_block(params)
    windowed, spectrum = m * params.window_len * 8, m * params.n_bins * 16
    beyond = peak - spec.magnitudes.nbytes
    assert beyond <= windowed + spectrum + windowed / 8


@pytest.mark.parametrize("window_len", [4, 256, 1000, 4096])
def test_window_is_formed_once_read_only_and_exact(window_len):
    params = StftParams(window_len=window_len, hop=window_len // 2, fft_len=4096)
    window = params.window()
    n = np.arange(window_len)
    assert window.tobytes() == (0.5 - 0.5 * np.cos(2 * np.pi * n / window_len)).tobytes()
    assert StftParams(window_len=window_len, hop=window_len // 4, fft_len=4096).window() is window
    assert not window.flags.writeable
    with pytest.raises(ValueError):
        window *= 2.0


def test_n_frames_is_the_count_stft_makes():
    params = StftParams(window_len=256, hop=64, fft_len=256)
    for n in (256, 257, 319, 320, 321, 1000):
        assert params.n_frames(n) == stft(AudioBuffer(np.zeros(n), SR), params).n_frames
    assert [params.n_frames(n) for n in (256, 257, 320, 321)] == [1, 2, 2, 3]


def test_non_finite_samples_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(4096)
        x[100] = bad
        for transform in (stft, block_spectra):
            with pytest.raises(InvalidInputError, match="input holds NaN or Inf samples"):
                transform(AudioBuffer(x, SR), StftParams())


def test_parseval_per_frame():
    params = StftParams()
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, covered_length(params, 8))
    spec = stft(AudioBuffer(x, SR), params)
    window = params.window()
    for frame in range(spec.n_frames):
        seg = x[frame * params.hop : frame * params.hop + params.window_len] * window
        time_energy = np.sum(seg**2)
        mags = spec.magnitudes[:, frame]
        spec_energy = (mags[0] ** 2 + mags[-1] ** 2 + 2 * np.sum(mags[1:-1] ** 2)) / params.fft_len
        assert abs(time_energy - spec_energy) <= 1e-9 * max(time_energy, 1e-30)


def test_export_pgm(tmp_path):
    rng = np.random.default_rng(4)
    mags = rng.random((16, 9))
    path = tmp_path / "s.pgm"
    export_pgm(mags, path)
    raw = path.read_bytes()
    header, rest = raw.split(b"\n255\n", 1)
    assert header.split(b"\n")[0] == b"P5"
    assert header.split(b"\n")[1] == b"9 16"
    assert len(rest) == 16 * 9


def pgm_pixels(path, d, n):
    header = f"P5\n{n} {d}\n255\n".encode("ascii")
    raw = path.read_bytes()
    assert raw.startswith(header)
    return np.frombuffer(raw[len(header) :], dtype=np.uint8).reshape(d, n)


def reference_pgm_pixels(mags):
    """The image as whole-array expressions: dB below the max, floored at
    -80 dB, mapped onto 0..255."""
    peak = mags.max()
    if peak <= 0:
        return np.zeros(mags.shape, dtype=np.uint8)
    with np.errstate(divide="ignore"):
        db = np.maximum(20.0 * np.log10(mags / peak), -80.0)
    return np.rint((db - -80.0) / 80.0 * 255.0).astype(np.uint8)


@pytest.mark.parametrize("case", ["C", "F", "zero-cell", "silent"])
def test_export_pgm_matches_whole_array_reference(tmp_path, case):
    mags = np.random.default_rng(6).random((40, 30)) ** 4
    if case == "F":
        mags = np.asfortranarray(mags)
    elif case == "zero-cell":
        mags[3, 5] = 0.0
    elif case == "silent":
        mags[:] = 0.0
    path = tmp_path / "s.pgm"
    export_pgm(mags, path)
    assert np.array_equal(pgm_pixels(path, 40, 30), reference_pgm_pixels(mags))


def test_export_pgm_holds_one_float_buffer(tmp_path):
    mags = np.random.default_rng(7).random((513, 300))
    peak, _ = peak_bytes(lambda: export_pgm(mags, tmp_path / "s.pgm"))
    # one float64 working copy and the uint8 image
    assert peak <= 1.2 * mags.nbytes


def test_export_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    mags = rng.random((8, 5))
    path = tmp_path / "s.csv"
    export_csv(mags, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.allclose(back, mags, atol=1e-10)
