import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onmfdenoise.audio_io import AudioBuffer
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.stft import (
    Spectrogram,
    StftParams,
    export_csv,
    export_pgm,
    frame_blocks,
    frames_per_block,
    istft,
    stft,
    stft_magnitudes,
)
from tests.conftest import peak_bytes

SR = 16000


def covered_length(params, n_frames):
    return (n_frames - 1) * params.hop + params.window_len


def blocks_of(mask):
    """A whole d x n mask array as the block function ``istft`` takes."""
    return lambda a, b: mask[:, a:b].T


def test_param_validation():
    with pytest.raises(InvalidInputError, match="hop must not exceed window_len"):
        StftParams(window_len=512, hop=1024)
    with pytest.raises(InvalidInputError, match="fft_len must be a power of two"):
        StftParams(window_len=1000, hop=500, fft_len=1000)  # not a power of two
    with pytest.raises(InvalidInputError, match="fft_len must be >= window_len"):
        StftParams(window_len=1024, hop=512, fft_len=512)


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
    back = istft(stft(buf, params)).samples
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
    back = istft(stft(AudioBuffer(x, SR), params)).samples
    assert len(back) >= len(x)
    lo, hi = window, len(x) - window
    assert np.max(np.abs(back[lo:hi] - x[lo:hi])) <= 1e-12 * scale


def test_istft_zero_magnitudes():
    spec = stft(AudioBuffer(np.ones(4096), SR), StftParams())
    silent = Spectrogram(
        values=np.zeros_like(spec.values),
        params=spec.params,
        sample_rate_hz=SR,
    )
    assert not np.any(istft(silent).samples)


def test_istft_linearity_on_interior():
    params = StftParams()
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, covered_length(params, 20))
    spec = stft(AudioBuffer(x, SR), params)
    doubled = Spectrogram(
        values=2 * spec.values,
        params=params,
        sample_rate_hz=SR,
    )
    a = istft(spec).samples
    b = istft(doubled).samples
    lo, hi = params.window_len, len(x) - params.window_len
    assert np.allclose(b[lo:hi], 2 * a[lo:hi], atol=1e-9)


def test_istft_rejects_non_cola_hop():
    params = StftParams(window_len=1024, hop=300, fft_len=1024)
    spec = stft(AudioBuffer(np.ones(4096), SR), params)
    with pytest.raises(InvalidInputError, match="inverse needs Hann with hop = window_len/2"):
        istft(spec)


def test_istft_mask_identity_zero_and_shape():
    params = StftParams()
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, covered_length(params, 150))
    spec = stft(AudioBuffer(x, SR), params)
    calls = []

    def ones(start, stop):
        calls.append((start, stop))
        return np.ones((stop - start, params.n_bins))

    assert np.array_equal(istft(spec, mask=ones).samples, istft(spec).samples)
    # one call per block, in order, for the frames-major (stop - start, d) mask
    assert calls == list(frame_blocks(params, spec.n_frames)) and len(calls) == 3
    assert not np.any(istft(spec, mask=blocks_of(np.zeros(spec.values.shape))).samples)


def test_istft_recovers_tonal_signal():
    # clean tonal signal, inverted with its own phases
    params = StftParams()
    n = covered_length(params, 40)
    t = np.arange(n) / SR
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    spec = stft(AudioBuffer(x, SR), params)
    back = istft(spec).samples
    lo, hi = params.window_len, n - params.window_len
    assert np.max(np.abs(back[lo:hi] - x[lo:hi])) <= 1e-6


def whole_matrix_stft(x, params):
    """Reference transform: every frame gathered at once, one rfft call."""
    n_frames = 1 + int(np.ceil(max(0, len(x) - params.window_len) / params.hop))
    padded = np.zeros((n_frames - 1) * params.hop + params.window_len)
    padded[: len(x)] = x
    starts = params.hop * np.arange(n_frames)
    idx = np.arange(params.window_len)[None, :] + starts[:, None]
    return np.fft.rfft(padded[idx] * params.window(), n=params.fft_len, axis=1).T


def whole_matrix_istft(values, params):
    """Reference inverse: one irfft over all frames, then overlap-add."""
    frames = np.fft.irfft(values.T, n=params.fft_len, axis=1)[:, : params.window_len]
    window = params.window()
    out_len = (frames.shape[0] - 1) * params.hop + params.window_len
    out = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for f, frame in enumerate(frames):
        lo = f * params.hop
        out[lo : lo + params.window_len] += frame * window
        wsum[lo : lo + params.window_len] += window**2
    return out / np.maximum(wsum, 1e-2)


# zero-padded FFT: 64 frames per block, from the FFT size, not the window
BLOCKED = StftParams(window_len=256, hop=64, fft_len=1024)
B = frames_per_block(BLOCKED)


@pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1, 2 * B + 1])
def test_blocked_transforms_match_whole_matrix(n_frames):
    params = BLOCKED
    rng = np.random.default_rng(n_frames)
    # a zero-padded tail: up to hop - 1 samples short of the last full frame
    short = int(rng.integers(0, params.hop)) if n_frames > 1 else 0
    x = rng.uniform(-1, 1, covered_length(params, n_frames) - short)
    spec = stft(AudioBuffer(x, SR), params)
    assert spec.n_frames == n_frames
    assert np.max(np.abs(spec.values - whole_matrix_stft(x, params))) <= 1e-12
    mask = rng.random(spec.values.shape)
    back = istft(spec, mask=blocks_of(mask)).samples
    assert np.max(np.abs(back - whole_matrix_istft(mask * spec.values, params))) <= 1e-12


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
    shape = (n_frames, params.n_bins)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T
    mask = rng.random(values.shape) if masked else None
    block_mask = None if mask is None else blocks_of(mask)
    back = istft(Spectrogram(values, params, SR), mask=block_mask).samples
    want = whole_matrix_istft(values if mask is None else mask * values, params)
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
    spec = stft(AudioBuffer(x, SR), params)
    assert spec.values.tobytes() == whole_matrix_stft(x, params).tobytes()
    assert stft_magnitudes(AudioBuffer(x, SR), params).tobytes() == np.abs(spec.values).tobytes()


HALF = StftParams(window_len=256, hop=128, fft_len=256)


@pytest.mark.parametrize(
    "params, n_frames, short",
    [
        (HALF, 2 * frames_per_block(HALF) + 3, 37),  # hop = window/2, zero-padded last frame
        (BLOCKED, B + 5, 50),  # hop = window/4, fft_len > window_len, zero-padded last frame
        (BLOCKED, 1, 0),  # exactly one frame
        (HALF, frames_per_block(HALF), 0),  # exactly one block
    ],
)
def test_magnitudes_are_abs_of_stft_bit_for_bit(params, n_frames, short):
    x = np.random.default_rng(n_frames).uniform(-1, 1, covered_length(params, n_frames) - short)
    want = np.abs(stft(AudioBuffer(x, SR), params).values)
    mags = stft_magnitudes(AudioBuffer(x, SR), params)
    assert mags.shape == want.shape == (params.n_bins, n_frames)
    assert mags.tobytes() == want.tobytes()
    assert mags.T.flags.c_contiguous  # frames-major, like a spectrogram's values


def test_transforms_use_numpy1_fft_signatures(monkeypatch):
    # the project supports numpy>=1.24; rfft and irfft gained out= in 2.0
    def v1(fn):
        return lambda a, n=None, axis=-1, norm=None: fn(a, n=n, axis=axis, norm=norm)

    monkeypatch.setattr(np.fft, "rfft", v1(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", v1(np.fft.irfft))
    params = StftParams(window_len=256, hop=64, fft_len=512)
    x = np.random.default_rng(0).uniform(-1, 1, covered_length(params, 70))
    spec = stft(AudioBuffer(x, SR), params)
    assert np.max(np.abs(spec.values - whole_matrix_stft(x, params))) <= 1e-12
    assert np.array_equal(stft_magnitudes(AudioBuffer(x, SR), params), np.abs(spec.values))
    istft(spec, mask=blocks_of(np.ones(spec.values.shape)))


def test_forward_holds_one_windowed_and_one_spectrum_block_beyond_x():
    # 76 frames at 4096/1024, the last one zero-padded: X is allocated
    # whole, and each block is windowed into one buffer and transformed
    params = StftParams(window_len=4096, hop=1024, fft_len=4096)
    x = AudioBuffer(np.random.default_rng(9).uniform(-0.5, 0.5, 5 * SR), SR)
    stft(x, params)  # the FFT's one-time plan for this size
    peak, spec = peak_bytes(lambda: stft(x, params))
    m = frames_per_block(params)
    windowed, spectrum = m * params.window_len * 8, m * params.n_bins * 16
    beyond = peak - spec.values.nbytes
    assert beyond <= windowed + spectrum + windowed / 8


def test_non_finite_samples_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(4096)
        x[100] = bad
        for transform in (stft, stft_magnitudes):
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
