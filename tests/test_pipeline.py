import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from onmfdenoise.audio_io import AudioBuffer
from onmfdenoise.errors import InvalidInputError, NonFiniteResultError
from onmfdenoise.nmf import Dictionary
from onmfdenoise.onmf import SamplerConfig
from onmfdenoise.pipeline import (
    DenoiseConfig,
    apply_mask,
    concat_dictionaries,
    denoise,
    denoise_spectrogram,
    separate,
    fit_dictionary,
    render_noise,
    train_dictionaries,
    _code_mask,
    _signal_ratio,
)
from onmfdenoise.stft import Spectrogram, StftParams, frames_per_block, istft, stft
from tests.conftest import peak_bytes

SR = 16000


def small_cfg(**overrides):
    defaults = dict(
        k_signal=3,
        k_noise=2,
        stft=StftParams(window_len=256, hop=128, fft_len=256),
        sampler=SamplerConfig(batch_cols=8, steps=20, seed=0),
        max_iters=100,
        seed=0,
    )
    defaults.update(overrides)
    return DenoiseConfig(**defaults)


def spectrogram_from(mags):
    return Spectrogram(
        values=mags.astype(complex),
        params=StftParams(window_len=256, hop=128, fft_len=256),
        sample_rate_hz=SR,
    )


class TestTrain:
    def test_rank1_prior_single_atom(self):
        rng = np.random.default_rng(0)
        col = rng.random(129) + 0.1
        mags = np.outer(col, rng.random(40) + 0.5)
        spec = spectrogram_from(mags)
        for trainer in ("batch", "online"):
            cfg = small_cfg(trainer=trainer, k_signal=1, k_noise=1)
            w_s, _ = train_dictionaries(spec, spec, cfg)
            atom = w_s.atoms[:, 0]
            cos = atom @ col / (np.linalg.norm(atom) * np.linalg.norm(col))
            assert np.arccos(np.clip(cos, -1, 1)) <= 1e-2

    def test_shape_contract_both_trainers(self):
        rng = np.random.default_rng(1)
        spec = spectrogram_from(rng.random((129, 30)))
        for trainer in ("batch", "online"):
            w_s, w_n = train_dictionaries(spec, spec, small_cfg(trainer=trainer))
            assert w_s.atoms.shape == (129, 3)
            assert w_n.atoms.shape == (129, 2)

    @pytest.mark.parametrize("trainer", ["batch", "online"])
    def test_pair_is_two_fit_dictionary_calls(self, trainer):
        rng = np.random.default_rng(8)
        s_prime = spectrogram_from(rng.random((129, 30)))
        n_prime = spectrogram_from(rng.random((129, 25)))
        cfg = small_cfg(trainer=trainer, seed=3)
        pair = train_dictionaries(s_prime, n_prime, cfg)
        singles = (
            fit_dictionary(s_prime.magnitudes, cfg, "signal")[0],
            fit_dictionary(n_prime.magnitudes, cfg, "noise")[0],
        )
        for got, want in zip(pair, singles):
            assert got.atoms.tobytes() == want.atoms.tobytes()

    def test_online_final_loss_copies_no_prior(self):
        from onmfdenoise.onmf import sparse_code
        from tests.conftest import loss

        # bins x frames, stored frames-major like a spectrogram's magnitudes
        mags = np.asfortranarray(np.random.default_rng(12).random((256, 4000)))
        sampler = SamplerConfig(batch_cols=8, steps=2, seed=0)
        cfg = small_cfg(trainer="online", k_signal=2, train_alpha=0.5, sampler=sampler)
        peak, (dictionary, final_loss) = peak_bytes(lambda: fit_dictionary(mags, cfg, "signal"))
        assert peak <= mags.nbytes / 4
        W = dictionary.atoms
        assert final_loss == pytest.approx(loss(mags, W, sparse_code(mags, W, 0.5), 0.5), rel=1e-9)

    def test_empty_prior_rejected(self):
        empty = spectrogram_from(np.zeros((129, 0)))
        with pytest.raises(InvalidInputError, match="prior spectrogram is empty"):
            train_dictionaries(empty, empty, small_cfg())

    @pytest.mark.parametrize("trainer", ["batch", "online"])
    @pytest.mark.parametrize("role", ["signal", "noise"])
    def test_silent_prior_rejected_naming_its_role(self, trainer, role):
        with pytest.raises(InvalidInputError, match=f"the {role} prior is silent"):
            fit_dictionary(np.zeros((129, 30)), small_cfg(trainer=trainer), role)

    @pytest.mark.parametrize("trainer", ["batch", "online"])
    def test_overflowing_prior_raises_non_finite_result(self, trainer):
        mags = np.random.default_rng(0).random((6, 20))
        mags[2, 7] = 1e308
        prior = spectrogram_from(mags)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResultError):
            train_dictionaries(prior, prior, small_cfg(trainer=trainer))


class TestConcat:
    def test_column_order_contract(self):
        rng = np.random.default_rng(2)
        a = rng.random((10, 4))
        b = rng.random((10, 2))
        w = concat_dictionaries(Dictionary(a), Dictionary(b))
        assert w.atoms.shape == (10, 6)
        assert np.array_equal(w.atoms[:, :4], a)
        assert np.array_equal(w.atoms[:, 4:], b)

    def test_concat_with_empty(self):
        rng = np.random.default_rng(3)
        a = Dictionary(rng.random((5, 3)))
        empty = Dictionary(np.zeros((5, 0)))
        assert np.array_equal(concat_dictionaries(a, empty).atoms, a.atoms)

    def test_unit_norms_preserved(self):
        rng = np.random.default_rng(4)
        a = rng.random((6, 2))
        a /= np.linalg.norm(a, axis=0)
        b = rng.random((6, 3))
        b /= np.linalg.norm(b, axis=0)
        w = concat_dictionaries(Dictionary(a), Dictionary(b))
        assert np.allclose(np.linalg.norm(w.atoms, axis=0), 1.0, atol=1e-12)

    def test_row_mismatch(self):
        with pytest.raises(InvalidInputError, match="row counts differ: 4 vs 5"):
            concat_dictionaries(Dictionary(np.ones((4, 2))), Dictionary(np.ones((5, 2))))


def separate_with_estimates(X, w_signal, w_noise, code_alpha):
    """The codes from ``separate`` with the partial reconstructions W @ H."""
    h_signal, h_noise = separate(X, w_signal, w_noise, code_alpha)
    return SimpleNamespace(
        s_est=w_signal.atoms @ h_signal,
        n_est=w_noise.atoms @ h_noise,
        h_signal=h_signal,
        h_noise=h_noise,
    )


class TestSeparate:
    def test_separable_instance_goes_to_signal_side(self):
        rng = np.random.default_rng(5)
        w_s = np.eye(8, 3) + 0.005 * rng.random((8, 3))
        w_s /= np.linalg.norm(w_s, axis=0)
        w_n = np.zeros((8, 2))
        w_n[6, 0] = 1.0
        w_n[7, 1] = 1.0
        h = rng.random((3, 10)) + 0.5
        mags = w_s @ h
        spec = spectrogram_from(mags)
        result = separate_with_estimates(spec, Dictionary(w_s), Dictionary(w_n), 0.0)
        assert np.linalg.norm(result.n_est) <= 1e-3 * np.linalg.norm(mags)

    def test_zero_input(self):
        result = separate_with_estimates(
            spectrogram_from(np.zeros((8, 5))),
            Dictionary(np.ones((8, 2))),
            Dictionary(np.ones((8, 1))),
            1.0,
        )
        assert not np.any(result.s_est) and not np.any(result.n_est)

    def test_split_reconcatenation(self):
        rng = np.random.default_rng(6)
        spec = spectrogram_from(rng.random((8, 5)))
        w_s = Dictionary(rng.random((8, 3)))
        w_n = Dictionary(rng.random((8, 2)))
        result = separate_with_estimates(spec, w_s, w_n, 0.1)
        from onmfdenoise.onmf import sparse_code

        W = np.hstack([w_s.atoms, w_n.atoms])
        H = sparse_code(spec.magnitudes, W, 0.1)
        assert np.array_equal(np.vstack([result.h_signal, result.h_noise]), H)


class TestMask:
    def test_all_signal(self):
        rng = np.random.default_rng(7)
        X = rng.random((4, 3))
        s = rng.random((4, 3)) + 0.5
        sm, nm = apply_mask(X, s, np.zeros_like(s))
        assert np.allclose(sm, X) and not np.any(nm)

    def test_symmetric_split(self):
        rng = np.random.default_rng(8)
        X = rng.random((4, 3))
        s = rng.random((4, 3)) + 0.5
        sm, nm = apply_mask(X, s, s.copy())
        assert np.allclose(sm, X / 2) and np.allclose(nm, X / 2)

    def test_additivity_with_zero_denominator_cells(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            X = rng.random((8, 6))
            s = rng.random((8, 6))
            n = rng.random((8, 6))
            dead = rng.random((8, 6)) < 0.3
            s[dead] = 0.0
            n[dead] = 0.0
            sm, nm = apply_mask(X, s, n)
            assert np.max(np.abs(sm + nm - X)) <= 1e-12
            ratio = np.divide(sm, X, out=np.zeros_like(sm), where=X > 0)
            assert np.all(ratio >= -1e-15) and np.all(ratio <= 1 + 1e-15)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_mask_is_additive_and_splits_within_the_mixture(data):
    shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    cells = st.floats(0.0, 1e3, allow_subnormal=False)
    # estimates are often exactly zero, which exercises the 50/50 floor
    estimates = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
    X = data.draw(arrays(np.float64, shape, elements=cells))
    s_est = data.draw(arrays(np.float64, shape, elements=estimates))
    n_est = data.draw(arrays(np.float64, shape, elements=estimates))
    sm, nm = apply_mask(X, s_est, n_est)
    assert np.max(np.abs(sm + nm - X)) <= 1e-12 * max(1.0, np.max(X))
    # a ratio in [0, 1] puts each part between 0 and the mixture cell
    assert np.all((sm >= 0) & (sm <= X)) and np.all((nm >= 0) & (nm <= X))
    ratio = np.divide(sm, X, out=np.full(shape, 0.5), where=X > 0)
    assert np.all((ratio >= 0) & (ratio <= 1))


class TestDenoise:
    def _dictionaries(self, d):
        rng = np.random.default_rng(10)
        w_s = rng.random((d, 3))
        w_n = rng.random((d, 2))
        w_s /= np.linalg.norm(w_s, axis=0)
        w_n /= np.linalg.norm(w_n, axis=0)
        return Dictionary(w_s), Dictionary(w_n)

    def test_zero_input_zero_output(self):
        cfg = small_cfg()
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        result = denoise(AudioBuffer(np.zeros(2048), SR), w_s, w_n, cfg)
        assert not np.any(result.denoised.samples)

    def test_output_length_matches_input(self):
        cfg = small_cfg()
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        rng = np.random.default_rng(11)
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 3000), SR)
        result = denoise(x, w_s, w_n, cfg)
        assert len(result.denoised) == len(x)

    def test_deterministic(self):
        cfg = small_cfg()
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        rng = np.random.default_rng(12)
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 3000), SR)
        a = denoise(x, w_s, w_n, cfg)
        b = denoise(x, w_s, w_n, cfg)
        assert np.array_equal(a.denoised.samples, b.denoised.samples)

    def test_mask_additivity_on_real_run(self):
        cfg = small_cfg()
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        rng = np.random.default_rng(13)
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 3000), SR)
        result = denoise(x, w_s, w_n, cfg)
        X = stft(x, cfg.stft)
        assert np.max(np.abs(result.s_masked + result.n_masked - X.magnitudes)) <= 1e-9


    def test_overflowing_mixture_raises_non_finite_result(self):
        # one finite sample of 1e308 overflows |X|^T W against unnormalised
        # atoms; the error comes before any coding, with no warning
        cfg = small_cfg()
        rng = np.random.default_rng(17)
        w_s = Dictionary(rng.random((cfg.stft.n_bins, 3)))
        w_n = Dictionary(rng.random((cfg.stft.n_bins, 2)))
        x = np.zeros(SR)
        x[SR // 2] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match=r"\|X\|\^T W of the mixture"):
                denoise(AudioBuffer(x, SR), w_s, w_n, cfg)

    def test_non_finite_denoised_signal_raises(self, monkeypatch):
        cfg = small_cfg()
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        monkeypatch.setattr(
            "onmfdenoise.pipeline.istft", lambda X, mask: AudioBuffer(np.full(3000, np.nan), SR)
        )
        with pytest.raises(NonFiniteResultError, match="non-finite denoised signal at alpha=100"):
            denoise(AudioBuffer(np.zeros(3000), SR), w_s, w_n, cfg)

    def test_peak_memory_bounded_by_spectrogram_size(self):
        # 30 s at 4096/1024: the mixture's STFT, its magnitudes and the two
        # estimates must not be joined by frames x fft_len matrices or a
        # whole masked complex spectrum
        cfg = small_cfg(stft=StftParams(window_len=4096, hop=1024, fft_len=4096))
        rng = np.random.default_rng(14)
        d = cfg.stft.n_bins
        w_s = Dictionary(rng.random((d, 50)))
        w_n = Dictionary(rng.random((d, 10)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 30 * SR), SR)
        peak, result = peak_bytes(lambda: denoise(x, w_s, w_n, cfg))
        assert peak <= 8 * result.ratio.size * 8

    def test_peak_beyond_spectrogram_is_output_codes_and_blocks(self):
        # X exists before tracing starts, so the peak is what denoising
        # holds beyond X: the output, the codes (with the coder's working
        # arrays) and a fixed number of blocks, the same at any duration
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        rng = np.random.default_rng(16)
        d = params.n_bins
        w_s = Dictionary(rng.random((d, 50)))
        w_n = Dictionary(rng.random((d, 10)))
        block_bytes = frames_per_block(params) * params.fft_len * 8
        beyond = []
        for seconds in (10, 60):
            x = AudioBuffer(rng.uniform(-0.5, 0.5, seconds * SR), SR)
            X = stft(x, params)
            peak, _ = peak_bytes(partial(denoise_spectrogram, X, w_s, w_n, 1.0, len(x)))
            out_bytes = ((X.n_frames - 1) * params.hop + params.window_len) * 8
            codes_bytes = (w_s.k + w_n.k) * X.n_frames * 8
            assert peak <= out_bytes + 8 * codes_bytes + 6 * block_bytes
            beyond.append(peak - out_bytes - codes_bytes)
        assert abs(beyond[1] - beyond[0]) <= block_bytes

    def test_masked_inverse_holds_one_block_of_each_working_array(self):
        # beyond its output rows, the inverse holds the masked complex
        # block, one inverse block and the mask's two estimate blocks
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        rng = np.random.default_rng(17)
        d = params.n_bins
        w_s, w_n = Dictionary(rng.random((d, 50))), Dictionary(rng.random((d, 10)))
        X = stft(AudioBuffer(rng.uniform(-0.5, 0.5, 10 * SR), SR), params)
        h_s, h_n = rng.random((50, X.n_frames)), rng.random((10, X.n_frames))
        istft(X)  # the FFT's one-time plan for this size
        peak, audio = peak_bytes(lambda: istft(X, mask=_code_mask(X, w_s, w_n, h_s, h_n)))
        m = frames_per_block(params)
        inverse = m * params.fft_len * 8
        blocks = m * d * 16 + inverse + 2 * m * d * 8
        beyond = peak - audio.samples.nbytes
        assert beyond <= blocks + inverse / 4


@pytest.fixture(scope="module")
def trained(fixture_seed0):
    from tests.conftest import FIXTURE_STFT

    cfg = DenoiseConfig(stft=FIXTURE_STFT, seed=0)
    w_s, w_n = train_dictionaries(
        fixture_seed0["s_prime"], fixture_seed0["n_prime"], cfg
    )
    return cfg, w_s, w_n


class TestFixtureBehavior:
    """Desk-scale behavioral checks on the synthetic chord fixture."""

    def test_clean_input_not_materially_damaged(self, fixture_seed0, trained):
        from onmfdenoise.metrics import evaluate

        cfg, w_s, w_n = trained
        clean = fixture_seed0["clean"]
        result = denoise(clean, w_s, w_n, cfg)
        report = evaluate(result.denoised, clean, fixture_seed0["noise"])
        assert report.sdr_db >= 20.0

    def test_ratio_is_the_applied_mask(self, fixture_seed0, trained):
        cfg, w_s, w_n = trained
        mixture = fixture_seed0["mixture"]
        result = denoise(mixture, w_s, w_n, cfg)
        X = result.mixture
        assert X.n_frames > 2 * frames_per_block(cfg.stft)
        ratio = result.ratio
        assert np.all((ratio >= 0) & (ratio <= 1))
        # the whole-matrix estimates differ from the blockwise ones in low bits only
        hs, hn = result.h_signal, result.h_noise
        whole = _signal_ratio((hs.T @ w_s.atoms.T).T, (hn.T @ w_n.atoms.T).T)
        np.testing.assert_allclose(ratio, whole, rtol=1e-12, atol=0)
        n = len(mixture)
        applied = istft(X, mask=lambda a, b: ratio[:, a:b].T).samples[:n]
        assert applied.tobytes() == result.denoised.samples.tobytes()
        noise = istft(X, mask=lambda a, b: 1.0 - ratio[:, a:b].T).samples[:n]
        assert noise.tobytes() == render_noise(result).samples.tobytes()

    def test_pure_noise_suppressed(self, trained):
        cfg, w_s, w_n = trained
        noise = AudioBuffer(
            np.random.default_rng(77).standard_normal(80000) * 0.1, SR
        )
        result = denoise(noise, w_s, w_n, cfg)
        assert np.linalg.norm(result.denoised.samples) <= 0.2 * np.linalg.norm(
            noise.samples
        )
