"""End-to-end denoising: train, sparse-code, mask, and resynthesize.

Signal and noise dictionaries are learned from prior recordings, the
noisy spectrogram is coded against the two side by side, and the two
partial reconstructions are turned into a real ratio mask that restores
exact additivity. The denoised signal reuses the noisy recording's
phases: it is the inverse STFT of ``s = ratio * X``, with X the complex
mixture spectrogram. ``separate`` and the online final loss call the
trainers' own coder and loss, ``onmf.sparse_code`` and ``nmf.loss``.

Denoising holds the mixture's samples, the codes and the output, and
otherwise works one block of frames at a time, in two passes over the
samples: the first forms each block's spectrum and its |X|^T W, the
coder's products, and the second forms each block's spectrum again and
resynthesizes it under the ratio that its estimates give. Neither X nor
any other d x n array is made, nor the d x (k_s + k_n) concatenation of
the dictionaries, and no block array outlives the stage that uses it:
the windowed frames, a spectrum's magnitudes, the two estimates and a
block's inverse are each formed fresh and dropped before the next
stage's, so a call on a short chunk holds little beyond its output and
one block. ``denoise_each`` denoises at a grid of L1 weights from one
first pass.

The ratio rule has one home, ``_signal_ratio``, and one block form,
``_code_mask``: the inverse of ``denoise``, ``render_noise`` and the
``DenoiseResult`` properties ``ratio``, ``s_masked`` and ``n_masked``
all apply the mask through it, so what the acceptance gate checks on a
result is the mask that was applied.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import AudioBuffer
from .errors import InvalidInputError, NonFiniteResultError, check_integers, check_weight
from .nmf import Dictionary, fit_nmf, loss
from .onmf import SamplerConfig, fit_onmf, sparse_code
from .stft import Spectrogram, StftParams, block_spectra, frame_blocks, masked_inverse, stft

__all__ = [
    "DenoiseConfig",
    "DenoiseResult",
    "fit_dictionary",
    "train_dictionaries",
    "separate",
    "denoise_each",
    "denoise",
    "render_noise",
]

# the ratio mask splits a cell 50/50 where S + N is below this floor
MASK_FLOOR = 1e-12

TRAINERS = ("batch", "online")


@dataclass(frozen=True)
class DenoiseConfig:
    """Settings of training and denoising. ``seed`` is the one training
    seed: the signal dictionary takes ``seed`` and the noise dictionary
    ``seed + 1``. ``sampler.seed`` is ignored. ``max_iters`` and ``rel_tol``
    reach only the batch trainer, but are checked whichever trainer runs."""

    trainer: str = "batch"  # one of TRAINERS
    k_signal: int = 50
    k_noise: int = 10
    train_alpha: float = 0.0
    code_alpha: float = 100.0
    stft: StftParams = field(default_factory=StftParams)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    seed: int = 0
    max_iters: int = 500
    rel_tol: float = 1e-4

    def __post_init__(self):
        if self.trainer not in TRAINERS:
            raise InvalidInputError(f"unknown trainer {self.trainer!r}")
        check_integers(self, k_signal=1, k_noise=1, seed=0, max_iters=0)
        check_weight(self.train_alpha)
        check_weight(self.code_alpha)
        if not self.rel_tol > 0:
            raise InvalidInputError("rel_tol must be positive")


@dataclass(frozen=True)
class DenoiseResult:
    """Output of ``denoise``: the noisy input and the STFT it was denoised
    at, the dictionaries and codes that mask it, and the resynthesized
    signal.

    ``ratio`` (the signal share of each cell of X) is formed on each
    access, block by block as the one inverse, ``masked_inverse``, formed
    it, so it is exactly the mask that was applied. ``s_masked`` (ratio *
    |X|) and ``n_masked`` (|X| - ratio * |X|) form it and |X|, from the one
    forward transform ``stft``, once each and work in their buffers, so
    neither makes a third bins x frames array. A caller that needs one of
    them more than once holds on to the array itself."""

    noisy: AudioBuffer
    params: StftParams
    w_signal: Dictionary
    w_noise: Dictionary
    h_signal: np.ndarray
    h_noise: np.ndarray
    denoised: AudioBuffer

    def _mask(self):
        return _code_mask(self.w_signal, self.w_noise, self.h_signal, self.h_noise)

    @property
    def ratio(self) -> np.ndarray:  # (d, n) in [0, 1]
        n = self.h_signal.shape[1]
        mask = self._mask()
        out = np.empty((n, self.params.n_bins))
        for start, stop in frame_blocks(self.params, n):
            out[start:stop] = mask(start, stop)
        return out.T

    @property
    def s_masked(self) -> np.ndarray:
        s = self.ratio
        s *= stft(self.noisy, self.params).magnitudes
        return s

    @property
    def n_masked(self) -> np.ndarray:
        mags = stft(self.noisy, self.params).magnitudes
        s = self.ratio
        s *= mags
        mags -= s
        return mags


def fit_dictionary(
    mags: np.ndarray, cfg: DenoiseConfig, role: str, log_path=None
) -> tuple[Dictionary, float]:
    """Learn the ``role`` ("signal" or "noise") dictionary from the
    magnitudes of its prior; returns it with its final training loss.

    ``mags`` is bins x frames; the CLI passes ``stft(...).magnitudes``,
    so no complex spectrogram of the prior is made. Size and seed come from
    ``role``: ``cfg.k_signal`` and ``cfg.seed``, or ``cfg.k_noise`` and
    ``cfg.seed + 1``. Online training codes the prior once for the final
    loss and writes its JSON-lines log to ``log_path``. An empty or silent
    (all-zero) prior raises ``InvalidInputError`` naming the role, as
    neither trainer can learn from it; a non-finite prior energy ||X||^2
    or final loss raises ``NonFiniteResultError``.
    """
    sizes = {"signal": (cfg.k_signal, cfg.seed), "noise": (cfg.k_noise, cfg.seed + 1)}
    if role not in sizes:
        raise InvalidInputError(f"unknown dictionary role {role!r}: expected signal or noise")
    k, seed = sizes[role]
    if mags.size == 0:
        raise InvalidInputError("prior spectrogram is empty")
    flat = mags.ravel(order="K")
    with np.errstate(over="ignore"):
        x_sq = float(np.vdot(flat, flat))
    if not np.isfinite(x_sq):
        raise NonFiniteResultError(f"energy of the {role} prior is not finite")
    if x_sq == 0.0:
        raise InvalidInputError(f"the {role} prior is silent: its magnitudes are all zero")
    if cfg.trainer == "batch":
        dictionary, _, trace = fit_nmf(
            mags, k, cfg.train_alpha, seed=seed, max_iters=cfg.max_iters, rel_tol=cfg.rel_tol
        )
        final_loss = trace[-1]
    else:
        sampler = replace(
            cfg.sampler, batch_cols=min(cfg.sampler.batch_cols, mags.shape[1]), seed=seed
        )
        dictionary = fit_onmf(mags, k, cfg.train_alpha, sampler, log_path=log_path)
        W = dictionary.atoms
        XtW, G = mags.T @ W, W.T @ W
        H = sparse_code(XtW.copy(), G, cfg.train_alpha)
        final_loss = loss(x_sq, XtW.T, G, H, cfg.train_alpha)
    if not np.isfinite(final_loss):
        raise NonFiniteResultError(f"non-finite training loss for {role} dictionary")
    return dictionary, final_loss


def train_dictionaries(
    s_prime: Spectrogram, n_prime: Spectrogram, cfg: DenoiseConfig
) -> tuple[Dictionary, Dictionary]:
    """Learn the signal dictionary from S' and the noise dictionary from N'."""
    w_signal, _ = fit_dictionary(s_prime.magnitudes, cfg, "signal")
    w_noise, _ = fit_dictionary(n_prime.magnitudes, cfg, "noise")
    return w_signal, w_noise


def separate(
    x: AudioBuffer,
    params: StftParams,
    w_signal: Dictionary,
    w_noise: Dictionary,
    code_alphas: Sequence[float],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sparse-code the spectrogram X of ``x`` at ``params`` against the
    frozen dictionary W = [W_signal | W_noise] once for each L1 weight of
    ``code_alphas``; returns one ``(h_signal, h_noise)`` pair per weight,
    in order: the first ``w_signal.k`` rows of each code are the signal's,
    the rest the noise's. Dictionaries whose rows are not both X's raise
    ``InvalidInputError``.

    The coder's products P = |X|^T W and G = W^T W do not depend on the
    weight, so they are formed once, and W itself never is: each block of
    ``block_spectra``'s frames gives its magnitudes once, and |X|^T W_signal
    and |X|^T W_noise fill that block's rows of P side by side, so neither
    X nor its magnitudes are ever held whole. G is assembled from
    W_signal^T W_signal, W_signal^T W_noise and W_noise^T W_noise, its lower
    block the transpose of its upper one, so it is exactly symmetric as the
    coder needs. The last weight is coded in P itself and each other one in
    a copy. A P or G that is not finite raises ``NonFiniteResultError``
    before any coding."""
    spectra = block_spectra(x, params)
    d, n = params.n_bins, params.n_frames(len(x))
    if not w_signal.d == w_noise.d == d:
        raise InvalidInputError(
            f"dictionary rows {w_signal.d} (signal) and {w_noise.d} (noise) != X rows {d}"
        )
    ws, wn, k_s = w_signal.atoms, w_noise.atoms, w_signal.k
    P = np.empty((n, k_s + w_noise.k))
    with np.errstate(over="ignore"):  # an overflowed P or G is rejected with its type
        for start, stop, spectrum in spectra:
            mags = np.abs(spectrum)
            np.matmul(mags, ws, out=P[start:stop, :k_s])
            np.matmul(mags, wn, out=P[start:stop, k_s:])
            del spectrum, mags  # freed before the next block's are taken
        cross = ws.T @ wn
        G = np.block([[ws.T @ ws, cross], [cross.T, wn.T @ wn]])
    if not np.all(np.isfinite(P)):
        raise NonFiniteResultError("|X|^T W of the mixture is not finite")
    codes = []
    for i, alpha in enumerate(code_alphas):
        H = sparse_code(P if i == len(code_alphas) - 1 else P.copy(), G, alpha)
        codes.append((H[: w_signal.k, :], H[w_signal.k :, :]))
    return codes


def _signal_ratio(s_est: np.ndarray, n_est: np.ndarray) -> np.ndarray:
    """S/(S+N), or 0.5 where S+N < MASK_FLOOR; computed in place, so
    both arguments are overwritten and the first one is returned."""
    denom = n_est
    denom += s_est
    ok = denom >= MASK_FLOOR
    np.divide(s_est, denom, out=s_est, where=ok)
    s_est[~ok] = 0.5
    return s_est


def _code_mask(
    w_signal: Dictionary, w_noise: Dictionary, h_signal: np.ndarray, h_noise: np.ndarray
):
    """The ratio mask of the codes as ``masked_inverse`` takes it:
    ``mask(start, stop)`` forms the frames-major estimates Hᵀ Wᵀ of frames
    [start, stop) and turns them into S/(S+N) (``_signal_ratio``), a new
    array on each call."""
    ws, wn = w_signal.atoms.T, w_noise.atoms.T

    def mask(start, stop):
        return _signal_ratio(h_signal[:, start:stop].T @ ws, h_noise[:, start:stop].T @ wn)

    return mask


def denoise_each(
    x: AudioBuffer,
    w_signal: Dictionary,
    w_noise: Dictionary,
    params: StftParams,
    alphas: Sequence[float],
) -> Iterator[DenoiseResult]:
    """``denoise`` at ``params`` for each L1 weight of ``alphas`` in turn:
    yields one ``DenoiseResult`` per weight, in order. The mixture's
    spectrum and its |X|^T W are formed once for all the weights
    (``separate``); each weight's output is then resynthesized when its
    result is asked for. The generator holds the codes of the weights
    still to come, and drops each weight's as its result is yielded, so
    a caller that drops the result holds neither.
    Every weight is checked, and a hop that is not window_len/2 or
    window_len/4 raises ``InvalidInputError``, before any transform; a
    denoised signal that is not finite raises ``NonFiniteResultError``."""
    params.check_cola()
    for alpha in alphas:
        check_weight(alpha)
    pending = separate(x, params, w_signal, w_noise, alphas)
    for alpha in alphas:
        yield _resynthesized(x, params, w_signal, w_noise, *pending.pop(0), alpha)


def _resynthesized(x, params, w_signal, w_noise, h_signal, h_noise, alpha) -> DenoiseResult:
    """The ``DenoiseResult`` of one weight's codes: ``x`` resynthesized
    under their ratio mask, as long as ``x``."""
    codes = (w_signal, w_noise, h_signal, h_noise)
    audio = masked_inverse(x, params, _code_mask(*codes))
    # min and max are NaN when the output holds a NaN: no mask as long as it
    if not np.all(np.isfinite((audio.samples.min(), audio.samples.max()))):
        raise NonFiniteResultError(f"non-finite denoised signal at alpha={alpha:g}")
    denoised = AudioBuffer(audio.samples[: len(x)], x.sample_rate_hz)
    return DenoiseResult(x, params, *codes, denoised=denoised)


def denoise(
    x: AudioBuffer,
    w_signal: Dictionary,
    w_noise: Dictionary,
    cfg: DenoiseConfig,
) -> DenoiseResult:
    """Full pipeline on a noisy buffer, at ``cfg.stft`` and
    ``cfg.code_alpha``: ``denoise_each`` of that one weight. It makes two
    passes over the samples: ``separate`` codes the mixture, and
    ``masked_inverse`` resynthesizes it under the codes' ratio mask; the
    output is as long as ``x``."""
    return next(denoise_each(x, w_signal, w_noise, cfg.stft, [cfg.code_alpha]))


def render_noise(result: DenoiseResult) -> AudioBuffer:
    """Resynthesize the masked noise part, (1 - ratio) * X, with the
    mixture's phases, as long as the input."""
    signal_share = result._mask()

    def noise_share(start, stop):
        ratio = signal_share(start, stop)
        return np.subtract(1.0, ratio, out=ratio)

    audio = masked_inverse(result.noisy, result.params, noise_share)
    return AudioBuffer(audio.samples[: len(result.noisy)], audio.sample_rate_hz)
