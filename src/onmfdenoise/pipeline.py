"""End-to-end denoising: train, sparse-code, mask, and resynthesize.

Signal and noise dictionaries are learned from prior recordings, the
noisy spectrogram is coded against their concatenation, and the two
partial reconstructions are turned into a real ratio mask that restores
exact additivity. The denoised signal reuses the noisy recording's
phases: it is the inverse STFT of ``s = ratio * X``, with X the complex
mixture spectrogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import AudioBuffer
from .errors import DimensionMismatchError, EmptyInputError, InvalidConfigError
from .nmf import Dictionary, NmfConfig, _loss_from_products, fit_nmf
from .onmf import SamplerConfig, _code_from_products, fit_onmf, sparse_code
from .stft import Spectrogram, StftParams, istft, stft

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "fit_dictionary",
    "train_dictionaries",
    "concat_dictionaries",
    "separate",
    "apply_mask",
    "denoise",
    "denoise_spectrogram",
]


@dataclass(frozen=True)
class DenoiseConfig:
    """Settings of training and denoising. ``seed`` is the one training
    seed: the signal dictionary takes ``seed`` and the noise dictionary
    ``seed + 1``. ``sampler.seed`` is ignored."""

    trainer: str = "batch"  # "batch" or "online"
    k_signal: int = 50
    k_noise: int = 10
    train_alpha: float = 0.0
    code_alpha: float = 100.0
    stft: StftParams = field(default_factory=StftParams)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    mask_epsilon: float = 1e-12
    seed: int = 0
    max_iters: int = 500
    rel_tol: float = 1e-4

    def __post_init__(self):
        if self.trainer not in ("batch", "online"):
            raise ValueError(f"unknown trainer {self.trainer!r}")
        if self.k_signal < 1 or self.k_noise < 1:
            raise ValueError("dictionary sizes must be >= 1")


@dataclass(frozen=True)
class DenoiseResult:
    """Output of ``denoise``: the mixture spectrogram X, the signal share
    of each of its cells, the codes, and the resynthesized signal."""

    mixture: Spectrogram
    ratio: np.ndarray  # (d, n) in [0, 1]
    h_signal: np.ndarray
    h_noise: np.ndarray
    denoised: AudioBuffer

    @property
    def s_masked(self) -> np.ndarray:
        return self.ratio * self.mixture.magnitudes

    @property
    def n_masked(self) -> np.ndarray:
        mags = self.mixture.magnitudes
        return mags - self.ratio * mags


def fit_dictionary(
    mags: np.ndarray, cfg: DenoiseConfig, role: str, log_path=None
) -> tuple[Dictionary, float]:
    """Learn the ``role`` ("signal" or "noise") dictionary from the
    magnitudes of its prior; returns it with its final training loss.

    Size and seed come from ``role``: ``cfg.k_signal`` and ``cfg.seed``, or
    ``cfg.k_noise`` and ``cfg.seed + 1``. Online training codes the prior
    once for the final loss and writes its JSON-lines log to ``log_path``.
    """
    k, seed = {"signal": (cfg.k_signal, cfg.seed), "noise": (cfg.k_noise, cfg.seed + 1)}[role]
    if mags.size == 0:
        raise EmptyInputError("prior spectrogram is empty")
    if cfg.trainer == "batch":
        nmf_cfg = NmfConfig(
            k=k,
            alpha=cfg.train_alpha,
            max_iters=cfg.max_iters,
            rel_tol=cfg.rel_tol,
            seed=seed,
        )
        dictionary, _, trace = fit_nmf(mags, nmf_cfg)
        return dictionary, trace[-1]
    sampler = replace(
        cfg.sampler, batch_cols=min(cfg.sampler.batch_cols, mags.shape[1]), seed=seed
    )
    dictionary = fit_onmf(mags, k, cfg.train_alpha, sampler, log_path=log_path)
    W = dictionary.atoms
    XtW, G = mags.T @ W, W.T @ W
    H = _code_from_products(XtW.copy(), G, cfg.train_alpha)
    flat = mags.ravel(order="K")
    x_sq = float(np.vdot(flat, flat))
    return dictionary, _loss_from_products(x_sq, XtW.T, G, H, cfg.train_alpha)


def train_dictionaries(
    s_prime: Spectrogram, n_prime: Spectrogram, cfg: DenoiseConfig
) -> tuple[Dictionary, Dictionary]:
    """Learn the signal dictionary from S' and the noise dictionary from N'."""
    w_signal, _ = fit_dictionary(s_prime.magnitudes, cfg, "signal")
    w_noise, _ = fit_dictionary(n_prime.magnitudes, cfg, "noise")
    return w_signal, w_noise


def concat_dictionaries(w_signal: Dictionary, w_noise: Dictionary) -> Dictionary:
    """Stack atoms side by side, signal columns first; column order is the
    contract used to split codes afterwards."""
    if w_signal.k == 0:
        return w_noise
    if w_noise.k == 0:
        return w_signal
    if w_signal.d != w_noise.d:
        raise DimensionMismatchError(
            f"row counts differ: {w_signal.d} vs {w_noise.d}"
        )
    return Dictionary(np.hstack([w_signal.atoms, w_noise.atoms]))


def separate(
    X: Spectrogram,
    w_signal: Dictionary,
    w_noise: Dictionary,
    code_alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse-code X against the frozen, concatenated dictionary; returns
    the signal and noise codes ``(h_signal, h_noise)``."""
    W = concat_dictionaries(w_signal, w_noise)
    H = sparse_code(X.magnitudes, W.atoms, code_alpha)
    return H[: w_signal.k, :], H[w_signal.k :, :]


def _signal_ratio(
    s_est: np.ndarray, n_est: np.ndarray, mask_epsilon: float
) -> np.ndarray:
    """S/(S+N), or 0.5 where S+N < mask_epsilon; computed in place, so
    both arguments are overwritten and the first one is returned."""
    denom = n_est
    denom += s_est
    ok = denom >= mask_epsilon
    np.divide(s_est, denom, out=s_est, where=ok)
    s_est[~ok] = 0.5
    return s_est


def apply_mask(
    X: np.ndarray,
    s_est: np.ndarray,
    n_est: np.ndarray,
    mask_epsilon: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Ratio-mask the mixture magnitudes so the parts add back to X.

    s = S*X/(S+N) and n = N*X/(S+N); cells where S+N < mask_epsilon get
    a 50/50 split of X, which keeps additivity exact everywhere.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape != s_est.shape or X.shape != n_est.shape:
        raise DimensionMismatchError("mask operands do not conform")
    ratio = _signal_ratio(
        np.array(s_est, dtype=np.float64),
        np.array(n_est, dtype=np.float64),
        mask_epsilon,
    )
    s_masked = ratio * X
    n_masked = X - s_masked
    return s_masked, n_masked


def denoise_spectrogram(
    X: Spectrogram,
    w_signal: Dictionary,
    w_noise: Dictionary,
    code_alpha: float,
    mask_epsilon: float,
    n_samples: int,
) -> DenoiseResult:
    """Denoise a mixture already transformed with ``X.params``; the output
    is cut to ``n_samples``. A mask floor that is not finite and positive
    raises ``InvalidConfigError``."""
    if not (math.isfinite(mask_epsilon) and mask_epsilon > 0):
        raise InvalidConfigError(f"mask floor must be finite and > 0, got {mask_epsilon}")
    h_signal, h_noise = separate(X, w_signal, w_noise, code_alpha)
    # frames-major estimates W @ H, like the spectrogram, turned into the
    # ratio in place: no other d x n array is formed, and the noise
    # estimate is freed before the inverse runs
    ratio = _signal_ratio(
        (h_signal.T @ w_signal.atoms.T).T, (h_noise.T @ w_noise.atoms.T).T, mask_epsilon
    )
    audio = istft(X, mask=ratio)
    return DenoiseResult(
        mixture=X,
        ratio=ratio,
        h_signal=h_signal,
        h_noise=h_noise,
        denoised=AudioBuffer(audio.samples[:n_samples], X.sample_rate_hz),
    )


def denoise(
    x: AudioBuffer,
    w_signal: Dictionary,
    w_noise: Dictionary,
    cfg: DenoiseConfig,
) -> DenoiseResult:
    """Full pipeline on a noisy buffer; returns the mixture spectrogram,
    the mask and the codes along with the denoised signal."""
    return denoise_spectrogram(
        stft(x, cfg.stft), w_signal, w_noise, cfg.code_alpha, cfg.mask_epsilon, len(x)
    )


def render_noise(result: DenoiseResult) -> AudioBuffer:
    """Resynthesize the masked noise part, (1 - ratio) * X, with the
    mixture's phases, as long as the denoised signal."""
    audio = istft(result.mixture, mask=1.0 - result.ratio)
    return AudioBuffer(audio.samples[: len(result.denoised)], audio.sample_rate_hz)
