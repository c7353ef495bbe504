import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from onmfdenoise.audio_io import AudioBuffer, SynthConfig, synth_mixture
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.onmf import CODE_MAX_ITERS, CODE_REL_TOL
from onmfdenoise.stft import StftParams, stft

SRC = Path(__file__).resolve().parents[1] / "src"

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


def child_env() -> dict:
    """The environment for a spawned interpreter: this one's, with the
    package's ``src`` directory first on PYTHONPATH, so the child imports
    the package under test however pytest itself was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def peak_bytes(fn):
    """Call ``fn()`` with tracemalloc on; returns (peak traced bytes, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def whole_matrix_stft(x, params):
    """Reference transform: every frame gathered at once, one rfft call;
    complex, bins x frames."""
    n_frames = 1 + int(np.ceil(max(0, len(x) - params.window_len) / params.hop))
    padded = np.zeros((n_frames - 1) * params.hop + params.window_len)
    padded[: len(x)] = x
    starts = params.hop * np.arange(n_frames)
    idx = np.arange(params.window_len)[None, :] + starts[:, None]
    return np.fft.rfft(padded[idx] * params.window(), n=params.fft_len, axis=1).T


def unit_mask(params, value=1.0):
    """The mask of ``value`` everywhere, as ``masked_inverse`` takes it. At
    1.0 the inverse is that of X itself, exactly: multiplying by 1.0
    changes no bit."""
    return lambda a, b: np.full((b - a, params.n_bins), value)


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


def loss(X: np.ndarray, W: np.ndarray, H: np.ndarray, alpha: float) -> float:
    """0.5 * ||X - WH||_F^2 + alpha * sum(H), from the explicit residual.

    Test oracle for the product-form loss the trainers report.
    """
    if W.shape[0] != X.shape[0] or H.shape[1] != X.shape[1] or W.shape[1] != H.shape[0]:
        raise InvalidInputError(f"shapes do not conform: X{X.shape}, W{W.shape}, H{H.shape}")
    resid = X - W @ H
    return 0.5 * float(np.sum(resid * resid)) + alpha * float(np.sum(H))


def batch_objective_oracle(X_batches, H_list, W: np.ndarray) -> float:
    """Average data-term loss over stored batches with codes held fixed.

    (1/t) * sum_s 0.5 * ||X_s - W H_s||_F^2. Test oracle: up to a
    constant in the X_s, this equals the aggregated surrogate.
    """
    if len(X_batches) != len(H_list):
        raise InvalidInputError("batch and code lists differ in length")
    if not X_batches:
        raise InvalidInputError("no batches")
    total = 0.0
    for X_s, H_s in zip(X_batches, H_list):
        resid = X_s - W @ H_s
        total += 0.5 * float(np.sum(resid * resid))
    return total / len(X_batches)


def _kkt_sq(G: np.ndarray, H: np.ndarray, P_alpha: np.ndarray) -> np.ndarray:
    """Per-column squared norm of min(H, G@H - P + alpha), which is zero
    exactly where H solves the L1 non-negative least-squares problem."""
    r = np.minimum(H, G @ H - P_alpha)
    return np.einsum("ij,ij->j", r, r)


def reference_sparse_code(
    X_t: np.ndarray,
    W: np.ndarray,
    alpha: float,
    rel_tol: float = CODE_REL_TOL,
    max_iters: int = CODE_MAX_ITERS,
) -> np.ndarray:
    """FISTA coder that forms both G@H and G@Y at every step and compacts
    its working set whenever a column stops.

    Test oracle for ``onmf.sparse_code``: the same iterates and the same
    per-column KKT stop, computed the direct way.
    """
    X_t = np.asarray(X_t, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W.shape[0] != X_t.shape[0]:
        raise InvalidInputError(f"W rows {W.shape[0]} != X rows {X_t.shape[0]}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidInputError(f"L1 weight must be finite and >= 0, got {alpha}")
    k, m = W.shape[1], X_t.shape[1]
    out = np.zeros((k, m))
    G = W.T @ W
    L = float(np.linalg.eigvalsh(G)[-1]) if k else 0.0
    if L == 0.0:
        return out
    P = W.T @ X_t
    thr_sq = rel_tol * rel_tol * np.einsum("ij,ij->j", P, P)
    P -= alpha
    active = np.arange(m)
    H = np.maximum(0.0, P / L)
    H_prev = H
    t = 1.0
    for step in range(max_iters + 1):
        done = _kkt_sq(G, H, P) <= thr_sq
        if step == max_iters:
            done[:] = True
        if done.any():
            out[:, active[done]] = H[:, done]
            keep = ~done
            active, H, H_prev, P, thr_sq = (
                active[keep], H[:, keep], H_prev[:, keep], P[:, keep], thr_sq[keep]
            )
        if active.size == 0:
            break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        Y = H + ((t - 1.0) / t_next) * (H - H_prev)
        t = t_next
        H_prev = H
        H = np.maximum(0.0, Y - (G @ Y - P) / L)
    return out
