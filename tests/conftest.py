import numpy as np
import pytest

from onmfdenoise.audio_io import AudioBuffer, SynthConfig, synth_mixture
from onmfdenoise.errors import DimensionMismatchError, EmptyInputError
from onmfdenoise.nmf import _conform
from onmfdenoise.stft import StftParams, stft

# chord vocabulary used by the synthetic denoising fixture
BASE_TONES = [220, 247, 262, 294, 330, 349, 392, 440, 494, 523]

# STFT resolution for the desk-scale experiments: the long window gives
# the frequency resolution (and magnitude scale) the chord fixture needs
FIXTURE_STFT = StftParams(window_len=4096, hop=1024, fft_len=4096)


def random_chords(rng, count):
    return [
        list(rng.choice(BASE_TONES, size=3, replace=False) * rng.choice([1, 2]))
        for _ in range(count)
    ]


def make_fixture(seed):
    """Priors plus a 5 dB SNR test mixture for one experiment seed."""
    rng = np.random.default_rng(seed)
    clean_prior, _, _ = synth_mixture(
        SynthConfig(
            duration_s=10.0,
            chords=random_chords(rng, 20),
            segment_s=0.5,
            amplitude=0.3,
            snr_db=np.inf,
            seed=seed,
        )
    )
    noise_prior = AudioBuffer(
        np.random.default_rng(seed + 50).standard_normal(160000) * 0.1, 16000
    )
    clean, noise, mixture = synth_mixture(
        SynthConfig(
            duration_s=5.0,
            chords=random_chords(rng, 10),
            segment_s=0.5,
            amplitude=0.3,
            snr_db=5.0,
            seed=seed + 100,
        )
    )
    return {
        "clean_prior": clean_prior,
        "noise_prior": noise_prior,
        "clean": clean,
        "noise": noise,
        "mixture": mixture,
        "s_prime": stft(clean_prior, FIXTURE_STFT),
        "n_prime": stft(noise_prior, FIXTURE_STFT),
    }


@pytest.fixture(scope="session")
def fixture_seed0():
    return make_fixture(0)


def loss(X: np.ndarray, W: np.ndarray, H: np.ndarray, alpha: float) -> float:
    """0.5 * ||X - WH||_F^2 + alpha * sum(H), from the explicit residual.

    Test oracle for the product-form loss the trainers report.
    """
    _conform(X, W, H)
    resid = X - W @ H
    return 0.5 * float(np.sum(resid * resid)) + alpha * float(np.sum(H))


def batch_objective_oracle(X_batches, H_list, W: np.ndarray) -> float:
    """Average data-term loss over stored batches with codes held fixed.

    (1/t) * sum_s 0.5 * ||X_s - W H_s||_F^2. Test oracle: up to a
    constant in the X_s, this equals the aggregated surrogate.
    """
    if len(X_batches) != len(H_list):
        raise DimensionMismatchError("batch and code lists differ in length")
    if not X_batches:
        raise EmptyInputError("no batches")
    total = 0.0
    for X_s, H_s in zip(X_batches, H_list):
        resid = X_s - W @ H_s
        total += 0.5 * float(np.sum(resid * resid))
    return total / len(X_batches)
