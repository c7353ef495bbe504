"""Online NMF: batched sparse coding with aggregated dictionary updates.

Each step samples a column batch, sparse-codes it against the current
dictionary, folds the batch into two running aggregation matrices
A (k x k) and B (k x d), and refits the dictionary from those aggregates
alone. Column history is never stored, so memory stays at
O(d*m + d*k + k^2) regardless of the spectrogram width.

The step count is a cap. At the end of every full pass over the columns,
ceil(n/m) steps, the trainer evaluates the surrogate 0.5*Tr(W A W^T) -
Tr(B W) whose convergence Mairal et al. (JMLR 2010) and Lyu et al. (JMLR
2020) prove, and stops once it moved by at most PASS_REL_TOL of its value
over the last pass.

The sparse coder, ``sparse_code``, codes training batches, mixtures and
the final loss from the products X^T W and W^T W that each caller forms.
It is accelerated projected gradient (FISTA) on the L1 non-negative
least-squares problem. Each column stops on its own KKT residual, so a
column's code does not depend on the other columns coded with it, up to
the rounding of BLAS products, which can change with the row count. Each
step forms one k x k product, M h with M = I - W^T W/L, which gives both
the KKT residual and, by linearity, the momentum step. Stopped columns
are written out at once but leave the working arrays only when half of
them have stopped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, NonFiniteResultError, check_integers, check_weight
from .nmf import Dictionary

# Stopping rules: the coder's per-column KKT tolerance and iteration cap,
# and the trainer's relative surrogate change over one pass.
CODE_REL_TOL = 1e-3
CODE_MAX_ITERS = 200
PASS_REL_TOL = 1e-2

SAMPLER_MODES = ("uniform", "consecutive")

__all__ = [
    "SamplerConfig",
    "OnmfState",
    "sample_batch",
    "sparse_code",
    "aggregate",
    "update_dictionary_online",
    "surrogate_value",
    "fit_onmf",
]


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "uniform"  # one of SAMPLER_MODES
    batch_cols: int = 100
    steps: int = 100  # a cap: fit_onmf may stop at a pass boundary before it
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SAMPLER_MODES:
            raise InvalidInputError(f"unknown sampler mode {self.mode!r}")
        check_integers(self, batch_cols=1, steps=0, seed=0)


@dataclass(frozen=True)
class OnmfState:
    """Dictionary plus aggregation matrices after t steps."""

    W: np.ndarray  # (d, k)
    A: np.ndarray  # (k, k)
    B: np.ndarray  # (k, d)
    t: int


def _take_columns(X, idx: np.ndarray) -> np.ndarray:
    """Column access point; sources may supply their own take_columns."""
    take = getattr(X, "take_columns", None)
    if take is not None:
        return np.asarray(take(idx), dtype=np.float64)
    return np.asarray(X, dtype=np.float64)[:, idx]


def sample_batch(X, cfg: SamplerConfig, t: int) -> np.ndarray:
    """Batch of cfg.batch_cols columns for step t (1-based).

    "uniform": i.i.d. columns with replacement, seeded by (cfg.seed, t).
    "consecutive": the cyclic window starting at (t-1)*m mod n; only that
    window is ever touched, which keeps the streaming contract.
    """
    n = X.shape[1]
    m = cfg.batch_cols
    if m > n:
        raise InvalidInputError(f"batch of {m} columns from a {n}-column matrix")
    if cfg.mode == "uniform":
        rng = np.random.default_rng([cfg.seed, t])
        idx = rng.integers(0, n, size=m)
    else:
        start = ((t - 1) * m) % n
        idx = (start + np.arange(m)) % n
    return _take_columns(X, idx)


def sparse_code(P: np.ndarray, G: np.ndarray, alpha: float) -> np.ndarray:
    """Non-negative L1-regularized least-squares codes for a fixed
    dictionary W, from the frames-major P = X^T W (m x k), which is
    overwritten, and G = W^T W; returns the k x m codes.

    Minimizes 0.5*||x_j - W h_j||^2 + alpha*sum(h_j) over h_j >= 0 for each
    column by accelerated projected gradient (FISTA, Beck & Teboulle 2009)
    with step 1/L, L the largest eigenvalue of G. Column j stops at the
    first iterate whose KKT residual meets
    ||min(h_j, G h_j - p_j + alpha)|| <= CODE_REL_TOL*||p_j|| (Lin 2007),
    with p_j = W^T x_j; columns still active after CODE_MAX_ITERS steps
    return their last iterate. The step size and momentum depend only on G
    and the step number, so each column's code does not depend on which
    other columns are coded with it, up to rounding: BLAS may round a row
    of a product differently as the number of rows changes (codes that
    reach 300 have been measured to move by up to 1.4e-11). An all-zero
    dictionary gives zero codes. A negative or non-finite alpha, or a P
    whose width is not G's size, raises ``InvalidInputError``, and a G that
    is not finite ``NonFiniteResultError``.

    With M = I - G/L and P_L = (P - alpha)/L, the gradient step from the
    momentum point Y = H + beta*(H - H_prev) is max(0, M Y + P_L), and
    M Y = M H + beta*(M H - M H_prev); the KKT gradient is
    G H - P + alpha = L*(H - M H - P_L). So each step forms only one k x k
    product, M H, from H itself, and keeps the previous step's M H instead
    of H_prev.

    Working arrays are frames-major, one row per column of X. A stopped
    row's code is written out at its stopping iterate and never again; the
    row keeps iterating, unread, until half the rows have stopped, and only
    then are the arrays compacted, a copy of contiguous rows.
    """
    check_weight(alpha)
    m, k = P.shape
    if G.shape != (k, k):
        raise InvalidInputError(f"products do not conform: P{P.shape}, G{G.shape}")
    if not np.all(np.isfinite(G)):
        raise NonFiniteResultError("W^T W of the dictionary is not finite")
    out = np.zeros((m, k))
    L = float(np.linalg.eigvalsh(G)[-1]) if k else 0.0
    if L == 0.0 or m == 0:
        return out.T
    thr_sq = CODE_REL_TOL * CODE_REL_TOL * np.einsum("ij,ij->i", P, P)
    P_L = P
    P_L -= alpha
    with np.errstate(over="ignore"):  # only to -inf, which projects to a zero code
        P_L /= L
    M = np.eye(k) - G / L
    rows = np.arange(m)  # the column of X each working row codes
    live = np.ones(m, dtype=bool)
    H = np.maximum(P_L, 0.0)
    MH = np.empty_like(H)
    MH_prev = np.zeros_like(H)
    buf = np.empty_like(H)
    t = 1.0
    for step in range(CODE_MAX_ITERS + 1):
        np.matmul(H, M, out=MH)  # M is symmetric: rows of H @ M are M h_j
        np.subtract(H, MH, out=buf)
        buf -= P_L
        buf *= L
        np.minimum(buf, H, out=buf)
        done = np.einsum("ij,ij->i", buf, buf) <= thr_sq
        if step == CODE_MAX_ITERS:
            done[:] = True
        done &= live
        stopped = np.flatnonzero(done)
        if stopped.size:
            # buf is free until the step: stage the stopped rows there
            out[rows[stopped]] = np.take(H, stopped, axis=0, out=buf[: stopped.size], mode="clip")
            live &= ~done
            n_live = int(np.count_nonzero(live))
            if n_live == 0:
                break
            if 2 * n_live <= live.size:
                # one array at a time, so each old array is freed first
                buf = None
                H = H[live]
                MH = MH[live]
                MH_prev = MH_prev[live]
                P_L = P_L[live]
                rows, thr_sq = rows[live], thr_sq[live]
                live = np.ones(n_live, dtype=bool)
                buf = np.empty_like(H)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        t = t_next
        np.subtract(MH, MH_prev, out=buf)
        buf *= beta
        buf += MH
        buf += P_L
        np.maximum(buf, 0.0, out=buf)
        H, buf = buf, H
        MH, MH_prev = MH_prev, MH
    return out.T


def aggregate(state: OnmfState, H_t: np.ndarray, X_t: np.ndarray) -> OnmfState:
    """Fold step t's batch into the running averages A and B."""
    if H_t.shape[1] != X_t.shape[1] or H_t.shape[0] != state.A.shape[0]:
        raise InvalidInputError(
            f"H{H_t.shape} does not conform with X{X_t.shape} / A{state.A.shape}"
        )
    t = state.t + 1
    A = _fold(state.A, t, H_t @ H_t.T)
    B = _fold(state.B, t, H_t @ X_t.T)
    return replace(state, A=A, B=B, t=t)


def _fold(total: np.ndarray, t: int, batch: np.ndarray) -> np.ndarray:
    """((t - 1) * total + batch) / t, formed in ``batch``, which is
    returned: each row of ``(t - 1) * total`` goes through one reused row
    vector, so no second whole-size array is made."""
    row = np.empty(total.shape[1])
    for new, old in zip(batch, total):
        new += np.multiply(old, t - 1, out=row)
    batch /= t
    return batch


def update_dictionary_online(state: OnmfState, normalize: bool = True) -> np.ndarray:
    """Refit the dictionary from the aggregates A and B.

    One sweep of cyclic column-wise coordinate descent on the quadratic
    surrogate 0.5*Tr(W A W^T) - Tr(B W) with a non-negativity projection:
    w_j <- max(0, w_j + (b_j - W a_j) / (A_jj + 1e-12)). With
    ``normalize`` each column is rescaled to unit L2 after its update;
    columns that project to zero keep their previous direction.
    """
    if state.t < 1 or not np.any(state.A):
        raise InvalidInputError("no aggregated information yet")
    A, B = state.A, state.B
    W = state.W.copy()
    w = np.empty(W.shape[0])  # each column's update, formed in place
    for j in range(W.shape[1]):
        np.matmul(W, A[:, j], out=w)
        np.subtract(B[j, :], w, out=w)
        w /= A[j, j] + 1e-12
        w += W[:, j]
        np.maximum(0.0, w, out=w)
        if normalize:
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                continue  # keep previous unit-norm column
            w /= norm
        W[:, j] = w
    return W


def surrogate_value(W: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """0.5*Tr(W A W^T) - Tr(B W); the objective coordinate descent drives.

    Formed as 0.5*<W^T W, A> - <B, W^T>, so no d x d matrix is made.
    """
    return 0.5 * float(np.vdot(W.T @ W, A)) - float(np.einsum("ij,ji->", B, W))


def _pass_change(f: float, f_prev: float) -> float:
    """|f - f_prev| / |f|, the surrogate's relative change over one pass;
    NaN or infinite when either value is, so it never meets a tolerance."""
    diff = abs(f - f_prev)
    return diff / abs(f) if f else (0.0 if diff == 0.0 else math.inf)


def _json_number(x):
    """x, or None (JSON null) when it is NaN or infinite, which strict
    JSON cannot spell."""
    return x if x is None or math.isfinite(x) else None


def _aux_elements(d: int, k: int, m: int) -> int:
    """Elements of per-step working storage: batch, aggregates A and B,
    dictionary, Gram G and the coder's M = I - G/L, and the coder's six
    k x m arrays: codes, P_L = (W^T X - alpha)/L, iterate H, M H, the
    previous step's M H, and the KKT and step buffer.

    It leaves out arrays that live only while one replaces another: the
    new B while a batch is folded in and the new W while the dictionary is
    refit (one d x k array at a time, with A and the codes' k x k products
    beside it), the previous step's codes while the next batch is coded,
    and vectors of length d, k or m."""
    return d * m + k * k + k * d + d * k + 2 * k * k + 6 * k * m


def fit_onmf(
    X,
    k: int,
    alpha: float,
    sampler: SamplerConfig,
    log_path=None,
) -> Dictionary:
    """Run the online factorization for at most sampler.steps steps.

    One pass over the n columns is per_pass = ceil(n / sampler.batch_cols)
    steps. At every step t that is a multiple of per_pass the surrogate f
    is evaluated, and training stops when an earlier boundary gave f_prev
    and |f - f_prev| <= PASS_REL_TOL * |f|; so it never stops before two
    passes, and a non-finite surrogate runs to the cap. The rule is the
    same for both sampler modes.

    The initial dictionary is i.i.d. uniform [0, 1) with unit-normalized
    columns, seeded by sampler.seed. While every batch so far has coded to
    zero, so A is still zero (a prior that starts with silence), the
    dictionary is not refit. An optional JSON-lines log records
    per-step surrogate value, code sparsity, and working-set size, one
    record per step run; boundary records add ``pass_change``, the
    relative surrogate change over the last pass (null at the first). A
    non-finite value is written as null.
    """
    d, n = X.shape
    if n == 0 or d == 0:
        raise InvalidInputError("cannot factorize an empty matrix")
    rng = np.random.default_rng(sampler.seed)
    W = rng.random((d, k))
    W /= np.linalg.norm(W, axis=0)[None, :]
    state = OnmfState(W=W, A=np.zeros((k, k)), B=np.zeros((k, d)), t=0)
    del W  # the state holds it, and a refit replaces it there
    per_pass = -(-n // sampler.batch_cols)
    f_prev = None
    log_fh = open(log_path, "w") if log_path is not None else None
    try:
        for t in range(1, sampler.steps + 1):
            X_t = sample_batch(X, sampler, t)
            H_t = sparse_code(X_t.T @ state.W, state.W.T @ state.W, alpha)
            state = aggregate(state, H_t, X_t)
            del X_t  # freed before the refit and the next batch
            # while every batch so far coded to zero there is nothing to fit
            if np.any(state.A):
                state = replace(state, W=update_dictionary_online(state))
            boundary = t % per_pass == 0
            if not boundary and log_fh is None:
                continue
            f = surrogate_value(state.W, state.A, state.B)
            change = _pass_change(f, f_prev) if boundary and f_prev is not None else None
            if log_fh is not None:
                record = {
                    "step": t,
                    "surrogate": _json_number(f),
                    "code_sparsity": float(np.mean(H_t <= 1e-10)),
                    "aux_elements": _aux_elements(d, k, sampler.batch_cols),
                }
                if boundary:
                    record["pass_change"] = _json_number(change)
                log_fh.write(json.dumps(record) + "\n")
            if boundary:
                if change is not None and change <= PASS_REL_TOL:
                    break
                f_prev = f
    finally:
        if log_fh is not None:
            log_fh.close()
    return Dictionary(state.W)
