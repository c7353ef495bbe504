import re
import sys
import warnings
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from onmfdenoise import nmf, onmf, stft as stft_module
from onmfdenoise.audio_io import AudioBuffer
from onmfdenoise.errors import InvalidInputError, NonFiniteResultError
from onmfdenoise.nmf import Dictionary
from onmfdenoise.onmf import SamplerConfig
from onmfdenoise.pipeline import (
    TRAINERS,
    DenoiseConfig,
    DenoiseResult,
    denoise,
    denoise_each,
    separate,
    fit_dictionary,
    render_noise,
    train_dictionaries,
    _code_mask,
    _signal_ratio,
)
from onmfdenoise.stft import (
    Spectrogram,
    StftParams,
    block_spectra,
    frame_blocks,
    frames_per_block,
    masked_inverse,
    stft,
)
from tests.conftest import peak_bytes, whole_matrix_istft, whole_matrix_stft

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
    return Spectrogram(np.asarray(mags, dtype=np.float64))


def split_products(mags_t, w_s, w_n):
    """The coder's P = |X|^T W of the frames-major magnitudes ``mags_t`` and
    G = W^T W, formed side by side as ``separate`` forms them: P from
    |X|^T W_s and |X|^T W_n, and G from W_s^T W_s, W_s^T W_n and W_n^T W_n
    with its lower block the transpose of its upper one. BLAS may round a
    product against the concatenated W differently, so no reference forms
    it."""
    ws, wn = w_s.atoms, w_n.atoms
    cross = ws.T @ wn
    return np.hstack([mags_t @ ws, mags_t @ wn]), np.block([[ws.T @ ws, cross], [cross.T, wn.T @ wn]])


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

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_final_loss_copies_no_prior(self, trainer):
        from onmfdenoise.onmf import sparse_code
        from tests.conftest import loss

        # bins x frames, stored frames-major like a spectrogram's magnitudes
        mags = np.asfortranarray(np.random.default_rng(12).random((256, 4000)))
        sampler = SamplerConfig(batch_cols=8, steps=2, seed=0)
        cfg = small_cfg(trainer=trainer, k_signal=2, train_alpha=0.5, sampler=sampler)
        peak, (dictionary, final_loss) = peak_bytes(lambda: fit_dictionary(mags, cfg, "signal"))
        assert peak <= mags.nbytes / 4
        W = dictionary.atoms
        H = sparse_code(mags.T @ W, W.T @ W, 0.5)
        assert final_loss == pytest.approx(loss(mags, W, H, 0.5), rel=1e-9)

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


SMALL = StftParams(window_len=256, hop=128, fft_len=256)


def separate_with_estimates(x, w_signal, w_noise, code_alpha):
    """The codes from ``separate`` at SMALL with the partial
    reconstructions W @ H."""
    [(h_signal, h_noise)] = separate(AudioBuffer(x, SR), SMALL, w_signal, w_noise, [code_alpha])
    return SimpleNamespace(
        s_est=w_signal.atoms @ h_signal,
        n_est=w_noise.atoms @ h_noise,
        h_signal=h_signal,
        h_noise=h_noise,
    )


class TestSeparate:
    def test_separable_instance_goes_to_signal_side(self):
        # the signal atoms are the mixture's own frames, so coding on the
        # signal side alone fits it exactly; the noise atoms are unit
        # bins, and with all seven atoms independent the fit is unique
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.5, 0.5, 4 * 128 + 256)
        mags = stft(AudioBuffer(x, SR), SMALL).magnitudes
        assert mags.shape == (129, 5)
        w_s = mags / np.linalg.norm(mags, axis=0)
        w_n = np.zeros((129, 2))
        w_n[6, 0] = 1.0
        w_n[7, 1] = 1.0
        result = separate_with_estimates(x, Dictionary(w_s), Dictionary(w_n), 0.0)
        assert np.linalg.norm(result.n_est) <= 1e-3 * np.linalg.norm(mags)

    def test_zero_input(self):
        result = separate_with_estimates(
            np.zeros(4 * 128 + 256),
            Dictionary(np.ones((129, 2))),
            Dictionary(np.ones((129, 1))),
            1.0,
        )
        assert not np.any(result.s_est) and not np.any(result.n_est)

    def test_split_reconcatenation(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-0.5, 0.5, 4 * 128 + 256)
        w_s = Dictionary(rng.random((129, 3)))
        w_n = Dictionary(rng.random((129, 2)))
        result = separate_with_estimates(x, w_s, w_n, 0.1)
        from onmfdenoise.onmf import sparse_code

        P, G = split_products(stft(AudioBuffer(x, SR), SMALL).magnitudes.T, w_s, w_n)
        H = sparse_code(P, G, 0.1)
        assert np.array_equal(np.vstack([result.h_signal, result.h_noise]), H)

    def test_row_mismatch(self):
        # both dictionaries must have X's rows: a mismatch on either side,
        # or on both alike, is named before any coding
        x = AudioBuffer(np.zeros(4 * 128 + 256), SR)
        for signal_rows, noise_rows in ((130, 129), (129, 128), (130, 130)):
            w_s, w_n = Dictionary(np.ones((signal_rows, 2))), Dictionary(np.ones((noise_rows, 1)))
            message = f"dictionary rows {signal_rows} (signal) and {noise_rows} (noise) != X rows 129"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                separate(x, SMALL, w_s, w_n, [1.0])


def record_calls(monkeypatch, original):
    """Wrap ``original`` at every module binding of the package; returns
    the list that each call's result is appended to."""
    results = []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("onmfdenoise"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return results


class TestOneCoderAndOneLoss:
    """Every caller reaches the coder as ``onmf.sparse_code`` and the
    product-form loss as ``nmf.loss``."""

    def test_denoise_codes_once_per_mixture(self, monkeypatch):
        cfg = small_cfg()
        rng = np.random.default_rng(13)
        w_s = Dictionary(rng.random((cfg.stft.n_bins, 3)))
        w_n = Dictionary(rng.random((cfg.stft.n_bins, 2)))
        codes = record_calls(monkeypatch, onmf.sparse_code)
        result = denoise(AudioBuffer(rng.uniform(-0.5, 0.5, 3000), SR), w_s, w_n, cfg)
        assert len(codes) == 1
        assert np.array_equal(codes[0], np.vstack([result.h_signal, result.h_noise]))

    def test_online_training_codes_each_step_and_the_final_loss(self, monkeypatch, tmp_path):
        mags = np.random.default_rng(14).random((129, 50))
        cfg = small_cfg(trainer="online", sampler=SamplerConfig(batch_cols=10, steps=7))
        codes = record_calls(monkeypatch, onmf.sparse_code)
        losses = record_calls(monkeypatch, nmf.loss)
        log = tmp_path / "log.jsonl"
        _, final_loss = fit_dictionary(mags, cfg, "signal", log_path=log)
        steps = len(log.read_text().splitlines())
        assert steps >= 1
        assert len(codes) == steps + 1
        assert losses == [final_loss]

    def test_batch_training_takes_one_loss_per_trace_entry(self, monkeypatch):
        # and one more, the final loss: the coder's codes of the prior, as
        # the online trainer's is scored, not the last trace entry
        from tests.conftest import loss

        mags = np.random.default_rng(15).random((129, 30))
        fits = record_calls(monkeypatch, nmf.fit_nmf)
        codes = record_calls(monkeypatch, onmf.sparse_code)
        losses = record_calls(monkeypatch, nmf.loss)
        _, final_loss = fit_dictionary(mags, small_cfg(), "signal")
        ((dictionary, _, trace),) = fits
        (H,) = codes
        assert losses == trace + [final_loss]
        assert final_loss == pytest.approx(loss(mags, dictionary.atoms, H, 0.0), rel=1e-9)

    def test_batch_training_passes_the_config_and_role_to_fit_nmf(self, monkeypatch):
        import inspect

        from onmfdenoise import pipeline

        calls = []

        def recording(*args, **kwargs):
            bound = inspect.signature(nmf.fit_nmf).bind(*args, **kwargs).arguments
            calls.append({name: v for name, v in bound.items() if name != "X"})
            return nmf.fit_nmf(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_nmf", recording)
        mags = np.random.default_rng(16).random((129, 30))
        cfg = small_cfg(train_alpha=0.5, seed=4, max_iters=7, rel_tol=1e-3)
        for role in ("signal", "noise"):
            fit_dictionary(mags, cfg, role)
        settings = dict(alpha=0.5, max_iters=7, rel_tol=1e-3)
        assert calls == [
            dict(k=cfg.k_signal, seed=4, **settings),
            dict(k=cfg.k_noise, seed=5, **settings),
        ]


def masked_parts(X, s_est, n_est):
    """The parts of X as ``DenoiseResult.s_masked`` and ``n_masked`` form
    them from the ratio of ``_signal_ratio``: s = ratio * X, n = X - s."""
    s = _signal_ratio(s_est.copy(), n_est.copy())
    s *= X
    return s, X - s


class TestMask:
    def test_all_signal(self):
        rng = np.random.default_rng(7)
        X = rng.random((4, 3))
        s = rng.random((4, 3)) + 0.5
        sm, nm = masked_parts(X, s, np.zeros_like(s))
        assert np.allclose(sm, X) and not np.any(nm)

    def test_symmetric_split(self):
        rng = np.random.default_rng(8)
        X = rng.random((4, 3))
        s = rng.random((4, 3)) + 0.5
        sm, nm = masked_parts(X, s, s.copy())
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
            sm, nm = masked_parts(X, s, n)
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
    sm, nm = masked_parts(X, s_est, n_est)
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
        # all NaN, or one NaN or infinity among finite samples
        outputs = [np.full(3000, np.nan)]
        for bad in (np.nan, np.inf, -np.inf):
            outputs.append(np.full(3000, 0.25))
            outputs[-1][1234] = bad
        for samples in outputs:
            monkeypatch.setattr(
                "onmfdenoise.pipeline.masked_inverse",
                lambda x, params, mask: AudioBuffer(samples, SR),
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
        # the samples exist before tracing starts, so the peak is what
        # denoising holds beyond them: the output, the codes (with the
        # coder's working arrays) and a fixed number of blocks, the same at
        # any duration, with no term in the spectrogram X
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        cfg = small_cfg(stft=params, code_alpha=1.0)
        rng = np.random.default_rng(16)
        d = params.n_bins
        w_s = Dictionary(rng.random((d, 50)))
        w_n = Dictionary(rng.random((d, 10)))
        block_bytes = frames_per_block(params) * params.fft_len * 8
        beyond = []
        for seconds in (10, 60):
            x = AudioBuffer(rng.uniform(-0.5, 0.5, seconds * SR), SR)
            n_frames = params.n_frames(len(x))
            peak, _ = peak_bytes(partial(denoise, x, w_s, w_n, cfg))
            out_bytes = ((n_frames - 1) * params.hop + params.window_len) * 8
            codes_bytes = (w_s.k + w_n.k) * n_frames * 8
            assert peak <= out_bytes + 8 * codes_bytes + 6 * block_bytes
            beyond.append(peak - out_bytes - codes_bytes)
        assert abs(beyond[1] - beyond[0]) <= block_bytes
        assert peak < n_frames * d * 16  # less than X alone, at 60 s

    def test_masked_inverse_holds_one_block_of_each_working_array(self):
        # beyond its output rows, the inverse from the samples holds the
        # block's spectrum, masked in place, and beside it one block of one
        # stage at a time: the windowed frames, the mask's two estimates or
        # the inverse
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        rng = np.random.default_rng(17)
        d = params.n_bins
        w_s, w_n = Dictionary(rng.random((d, 50))), Dictionary(rng.random((d, 10)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 10 * SR), SR)
        n_frames = params.n_frames(len(x))
        h_s, h_n = rng.random((50, n_frames)), rng.random((10, n_frames))
        mask = _code_mask(w_s, w_n, h_s, h_n)
        masked_inverse(x, params, mask)  # the FFT's one-time plans for this size
        peak, audio = peak_bytes(lambda: masked_inverse(x, params, mask))
        m = frames_per_block(params)
        inverse = m * params.fft_len * 8
        windowed = m * params.window_len * 8
        blocks = m * d * 16 + max(windowed, 2 * m * d * 8, inverse)
        beyond = peak - audio.samples.nbytes
        assert beyond <= blocks + inverse / 4

    def test_separate_holds_p_one_windowed_block_one_spectrum_and_the_coder(self):
        # the first pass holds P, and one block at a time: its windowed
        # frames and spectrum, then the spectrum and its magnitudes; the
        # coder's k x frames arrays come after. No d x (k_s + k_n) array,
        # such as the concatenated W, is formed
        from onmfdenoise.onmf import sparse_code

        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        rng = np.random.default_rng(19)
        d, m = params.n_bins, frames_per_block(params)
        w_s, w_n = Dictionary(rng.random((d, 50))), Dictionary(rng.random((d, 10)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 2 * SR), SR)
        P, G = split_products(stft(x, params).magnitudes.T, w_s, w_n)
        coder, _ = peak_bytes(partial(sparse_code, P.copy(), G, 1.0))
        separate(x, params, w_s, w_n, [1.0])  # the FFT's one-time plans for this size
        peak, _ = peak_bytes(lambda: separate(x, params, w_s, w_n, [1.0]))
        windowed, spectrum = m * params.window_len * 8, m * d * 16
        assert peak <= P.nbytes + windowed + spectrum + coder

    def test_a_one_frame_call_holds_less_than_a_quarter_of_the_signal_dictionary(self):
        # a real-time caller denoises short chunks: on one frame at
        # 4096/1024 with 50 + 10 atoms, a call holds one block of each
        # stage and its output, far less than the 0.78 MiB signal dictionary
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        cfg = small_cfg(stft=params, code_alpha=10.0)
        rng = np.random.default_rng(22)
        d = params.n_bins
        w_s, w_n = Dictionary(rng.random((d, 50))), Dictionary(rng.random((d, 10)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, params.window_len), SR)
        denoise(x, w_s, w_n, cfg)  # the FFT's one-time plans for this size
        peak, _ = peak_bytes(partial(denoise, x, w_s, w_n, cfg))
        assert peak < w_s.atoms.nbytes / 4

    @pytest.mark.parametrize("seconds, bound_mib", [(1, 0.75), (5, 1.3)])
    def test_a_short_call_peaks_under_its_absolute_bound(self, seconds, bound_mib):
        # at 4096/1024 with 50 + 10 atoms, a warmed-up call on a 1 s chunk
        # or a 5 s mixture holds its output (0.13 or 0.62 MiB) and one
        # block of each stage, a block being 8 frames
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        cfg = small_cfg(stft=params, code_alpha=10.0)
        rng = np.random.default_rng(23)
        d = params.n_bins
        w_s, w_n = Dictionary(rng.random((d, 50))), Dictionary(rng.random((d, 10)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, seconds * SR), SR)
        denoise(x, w_s, w_n, cfg)  # the FFT's one-time plans for this size
        peak, _ = peak_bytes(partial(denoise, x, w_s, w_n, cfg))
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize(
        "params",
        [StftParams(4096, 1024, 4096), StftParams(1024, 512, 1024), StftParams(256, 64, 1024)],
        ids=lambda p: f"{p.window_len}-{p.hop}-{p.fft_len}",
    )
    def test_the_block_size_moves_codes_and_output_by_rounding_only(self, monkeypatch, params):
        # |X| is the same bits at any block size, but the coder's products
        # are taken block by block, and BLAS may round a row of a product
        # differently with the number of rows
        rng = np.random.default_rng(params.fft_len + params.hop)
        d = params.n_bins
        w_s, w_n = Dictionary(rng.random((d, 20))), Dictionary(rng.random((d, 5)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 3 * SR), SR)
        cfg = small_cfg(stft=params, code_alpha=1.0)
        results = {}
        for block in (2**13, 2**15, 2**16):
            monkeypatch.setattr(stft_module, "BLOCK_SAMPLES", block)
            results[block] = denoise(x, w_s, w_n, cfg)
        ref = results.pop(2**15)
        H_ref = np.vstack([ref.h_signal, ref.h_noise])
        out_ref = ref.denoised.samples
        for block, result in results.items():
            H = np.vstack([result.h_signal, result.h_noise])
            assert np.max(np.abs(H - H_ref)) <= 1e-9 * np.max(np.abs(H_ref)), block
            out = result.denoised.samples
            assert np.max(np.abs(out - out_ref)) <= 1e-12 * np.max(np.abs(out_ref)), block

    def test_each_mask_block_is_a_new_array(self):
        # the inverse may keep a block's ratio past the next call
        params = StftParams(window_len=256, hop=128, fft_len=256)
        rng = np.random.default_rng(20)
        d, n = params.n_bins, 3 * frames_per_block(params)
        w_s, w_n = Dictionary(rng.random((d, 4))), Dictionary(rng.random((d, 3)))
        h_s, h_n = rng.random((4, n)), rng.random((3, n))
        mask = _code_mask(w_s, w_n, h_s, h_n)
        (a0, a1), (b0, b1), _ = frame_blocks(params, n)
        first = mask(a0, a1)
        kept = first.copy()
        second = mask(b0, b1)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    def test_masked_parts_hold_the_ratio_and_magnitudes_once(self):
        # s_masked and n_masked each form |X| and the ratio and work in
        # their buffers: two bins x frames arrays and a few blocks, with
        # the values of ratio * |X| and |X| - ratio * |X|
        params = StftParams(window_len=4096, hop=1024, fft_len=4096)
        rng = np.random.default_rng(18)
        d = params.n_bins
        x = AudioBuffer(rng.uniform(-0.5, 0.5, 30 * SR), SR)
        n = params.n_frames(len(x))
        w_s, w_n = Dictionary(rng.random((d, 50))), Dictionary(rng.random((d, 10)))
        result = DenoiseResult(x, params, w_s, w_n, rng.random((50, n)), rng.random((10, n)), x)
        mags, ratio = stft(x, params).magnitudes, result.ratio
        block_bytes = frames_per_block(params) * params.fft_len * 8
        for name, expected in (("s_masked", ratio * mags), ("n_masked", mags - ratio * mags)):
            peak, part = peak_bytes(lambda: getattr(result, name))
            assert peak <= 2 * d * n * 8 + 3 * block_bytes, name
            assert part.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("window_len, hop", [(256, 128), (1024, 512), (4096, 1024)])
    @pytest.mark.parametrize("length", ["window", "window+1", "block", "10s"])
    def test_equals_the_whole_spectrogram_reference_bit_for_bit(self, window_len, hop, length):
        # the reference holds X: the whole-matrix transform, then |X|^T W
        # and W^T W side by side (split_products), the codes and the
        # whole-matrix inverse of ratio * X. Its products are taken in the
        # blocks of frame_blocks, as BLAS may round a row of a product
        # differently with the number of rows
        params = StftParams(window_len=window_len, hop=hop, fft_len=window_len)
        n = {
            "window": window_len,
            "window+1": window_len + 1,  # a zero-padded tail frame
            "block": (frames_per_block(params) - 1) * hop + window_len,
            "10s": 10 * SR,
        }[length]
        rng = np.random.default_rng(window_len + n)
        d = params.n_bins
        w_s, w_n = Dictionary(rng.random((d, 5))), Dictionary(rng.random((d, 3)))
        x = AudioBuffer(rng.uniform(-0.5, 0.5, n), SR)
        cfg = small_cfg(stft=params, code_alpha=1.0)
        result = denoise(x, w_s, w_n, cfg)

        from onmfdenoise.onmf import sparse_code

        X = whole_matrix_stft(x.samples, params)
        n_frames = X.shape[1]
        mags = np.abs(X)
        blocks = [split_products(mags[:, a:b].T, w_s, w_n) for a, b in frame_blocks(params, n_frames)]
        H = sparse_code(np.vstack([P for P, _ in blocks]), blocks[0][1], 1.0)
        assert np.array_equal(H, np.vstack([result.h_signal, result.h_noise]))
        mask = _code_mask(w_s, w_n, H[:5], H[5:])
        ratio = np.empty((n_frames, d))
        for start, stop in frame_blocks(params, n_frames):
            ratio[start:stop] = mask(start, stop)
        for share, got in ((ratio, result.denoised), (1.0 - ratio, render_noise(result))):
            want = whole_matrix_istft(share.T * X, params)[:n]
            assert got.samples.tobytes() == want.tobytes()

    def test_rejects_a_hop_it_cannot_invert_before_coding(self, monkeypatch):
        def failing(*args):
            raise AssertionError("coded before the hop was checked")

        monkeypatch.setattr("onmfdenoise.pipeline.sparse_code", failing)
        cfg = small_cfg(stft=StftParams(window_len=4096, hop=1000, fft_len=4096))
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        x = AudioBuffer(np.random.default_rng(18).uniform(-0.5, 0.5, 3 * SR), SR)
        with pytest.raises(InvalidInputError, match="got hop 1000 for window_len 4096"):
            denoise(x, w_s, w_n, cfg)

    def test_each_weight_of_a_grid_equals_its_own_denoise(self, monkeypatch):
        # one forward pass forms the products for the whole grid, and one
        # inverse per weight resynthesizes it
        cfg = small_cfg(code_alpha=50.0)
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        x = AudioBuffer(np.random.default_rng(21).uniform(-0.5, 0.5, 2 * SR), SR)
        alphas = [0.5, 2.0, 8.0]
        singles = [denoise(x, w_s, w_n, replace(cfg, code_alpha=a)) for a in alphas]
        passes = record_calls(monkeypatch, block_spectra)
        for one, each in zip(singles, denoise_each(x, w_s, w_n, cfg.stft, alphas)):
            assert each.denoised.samples.tobytes() == one.denoised.samples.tobytes()
            assert each.h_signal.tobytes() == one.h_signal.tobytes()
            assert each.h_noise.tobytes() == one.h_noise.tobytes()
        assert len(passes) == 1 + len(alphas)

    def test_grid_checks_every_weight_before_any_transform(self, monkeypatch):
        def failing(*args):
            raise AssertionError("transformed before every weight was checked")

        monkeypatch.setattr("onmfdenoise.pipeline.block_spectra", failing)
        cfg = small_cfg()
        w_s, w_n = self._dictionaries(cfg.stft.n_bins)
        x = AudioBuffer(np.zeros(SR), SR)
        with pytest.raises(InvalidInputError, match="L1 weight must be finite and >= 0, got -1"):
            next(denoise_each(x, w_s, w_n, cfg.stft, [1.0, -1.0]))


class TestConfig:
    @pytest.mark.parametrize("field", ["code_alpha", "train_alpha"])
    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf, -np.inf])
    def test_weight_is_checked_where_it_is_declared(self, field, alpha):
        with pytest.raises(InvalidInputError, match=r"L1 weight must be finite and >= 0, got"):
            DenoiseConfig(**{field: alpha})

    def test_zero_weights_are_accepted(self):
        assert DenoiseConfig(code_alpha=0.0, train_alpha=0.0).code_alpha == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k_signal", 2.5),
            ("k_noise", 10.0),
            ("max_iters", 2.5),
            ("seed", 1.5),
            ("k_signal", True),
            ("max_iters", "10"),
            ("seed", None),
        ],
    )
    def test_integer_setting_rejects_other_types_naming_the_field(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got"):
            DenoiseConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("k_signal", 0), ("k_noise", 0), ("max_iters", -1), ("seed", -1)]
    )
    def test_integer_setting_below_its_minimum_is_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be >= {value + 1}, got {value}"):
            DenoiseConfig(**{field: value})

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_numpy_integer_settings_train_as_ints_do(self, trainer):
        mags = np.random.default_rng(4).random((9, 30))
        sampler = SamplerConfig(batch_cols=10, steps=4)
        ints = DenoiseConfig(trainer, k_signal=3, seed=2, max_iters=5, sampler=sampler)
        numpy_ints = replace(ints, k_signal=np.int64(3), seed=np.int32(2), max_iters=np.uint8(5))
        expected, expected_loss = fit_dictionary(mags, ints, "signal")
        dictionary, final_loss = fit_dictionary(mags, numpy_ints, "signal")
        assert dictionary.atoms.tobytes() == expected.atoms.tobytes()
        assert final_loss == expected_loss


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
        assert result.h_signal.shape[1] > 2 * frames_per_block(cfg.stft)
        ratio = result.ratio
        assert np.all((ratio >= 0) & (ratio <= 1))
        # the whole-matrix estimates differ from the blockwise ones in low bits only
        hs, hn = result.h_signal, result.h_noise
        whole = _signal_ratio((hs.T @ w_s.atoms.T).T, (hn.T @ w_n.atoms.T).T)
        np.testing.assert_allclose(ratio, whole, rtol=1e-12, atol=0)
        n = len(mixture)
        applied = masked_inverse(mixture, cfg.stft, lambda a, b: ratio[:, a:b].T).samples[:n]
        assert applied.tobytes() == result.denoised.samples.tobytes()
        noise = masked_inverse(mixture, cfg.stft, lambda a, b: 1.0 - ratio[:, a:b].T).samples[:n]
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
