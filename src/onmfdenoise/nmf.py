"""Batch non-negative matrix factorization by multiplicative updates.

Minimizes 0.5 * ||X - WH||_F^2 + alpha * ||H||_1 over W, H >= 0, with the
regularizer folded into the code-update denominator. After each full
iteration, dictionary columns are rescaled to unit L2 norm with the
matching code rows scaled inversely, so the product WH is unchanged.
The dictionary step is normalization-aware, so the rescale never pushes
the regularized loss up.

The trainer forms W^T X and W^T W once per dictionary and takes the loss
of that iterate, ||X||^2 - 2<W^T X, H> + <W^T W, H H^T>, the next code
step and the dictionary step's two column sums from them; it never forms
the d x n residual X - WH. The dictionary step and the rescale run in
place, in two d x k buffers allocated once per fit. W and those buffers
are column-major, so each atom is contiguous: with k far below d, BLAS
writes X H^T faster into them, and the broadcasts and norms run down
contiguous columns.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_integer

__all__ = [
    "Dictionary",
    "update_code",
    "loss",
    "fit_nmf",
    "save_dictionary",
    "load_dictionary",
]

_MAGIC = b"ONMFDICT"
_FORMAT_VERSION = 1
# added to the denominators of the multiplicative updates
EPSILON = 1e-12


@dataclass(frozen=True)
class Dictionary:
    """Non-negative d x k atom matrix with unit-L2 columns."""

    atoms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=np.float64))
        if self.atoms.ndim != 2:
            raise InvalidInputError("atoms must be a 2-D matrix")

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def k(self) -> int:
        return self.atoms.shape[1]


def update_code(WtX, G, H, alpha: float) -> np.ndarray:
    """One multiplicative step on H from WtX = W^T X and G = W^T W; alpha
    enters the denominator."""
    if WtX.shape != H.shape or G.shape != (H.shape[0], H.shape[0]):
        raise InvalidInputError(
            f"shapes do not conform: WtX{WtX.shape}, G{G.shape}, H{H.shape}"
        )
    return H * WtX / (G @ H + alpha + EPSILON)


def loss(x_sq: float, WtX, G, H, alpha: float) -> float:
    """0.5 * ||X - WH||_F^2 + alpha * sum(H) from ||X||^2, W^T X and
    W^T W, without the d x n residual: both trainers' reported loss.

    Cancellation can leave the data term a rounding error below zero near
    an exact fit; it is reported as 0. A NaN passes through unchanged.
    """
    data = x_sq - 2.0 * float(np.vdot(WtX, H)) + float(np.vdot(G, H @ H.T))
    if data < 0.0:
        data = 0.0
    return 0.5 * data + alpha * float(np.sum(H))


def _column_major_work(d: int, k: int) -> np.ndarray:
    """Two column-major d x k buffers, ``work[0]`` and ``work[1]``, in one
    allocation, which is returned to the system whole; separate ones can
    stay resident as heap fragments after the fit."""
    return np.empty((2, k, d)).transpose(0, 2, 1)


def _update_dictionary_normalized(X, W, H, WtX, G, work) -> np.ndarray:
    """Multiplicative W step that respects the unit-column constraint.

    For unit-norm columns the plain update followed by a rescale can push
    the L1 term of the loss up; the correction terms below keep the full
    regularized loss non-increasing once columns are renormalized.

    ``WtX`` and ``G`` are W^T X and W^T W of this W, and H the new codes.
    The column sums of W * (W H H^T) and W * (X H^T) are then the k-sized
    diag(G H H^T) and row sums of WtX * H, and the denominator
    W H H^T + W diag(sum_denom) is one product, W (H H^T + diag(sum_denom)).
    The step is taken in W itself, which is returned, with ``work``, two
    d x k arrays it overwrites, so no d x k array is allocated.
    """
    num, den = work
    HHt = H @ H.T
    sum_numer = np.einsum("ij,ji->i", G, HHt)
    sum_denom = np.einsum("ij,ij->i", WtX, H)
    # numerator X H^T + W * sum_numer, denominator W (HHt + diag(sum_denom)) + EPSILON
    np.matmul(X, H.T, out=num)
    num += np.multiply(W, sum_numer[None, :], out=den)
    HHt[np.diag_indices_from(HHt)] += sum_denom
    np.matmul(W, HHt, out=den)
    den += EPSILON
    W *= num
    W /= den
    return W


def _renormalize(W, H, rng, scratch) -> None:
    """Scale W columns to unit L2 and H rows inversely, in place; WH is
    preserved. ``scratch``, a d x k array it overwrites, stands in for the
    norm's two d x k temporaries.

    Columns with norm below 1e-12 are reinitialized from ``rng`` (their H
    rows zeroed) so atoms cannot die permanently.
    """

    def column_norms():
        # np.linalg.norm(W, axis=0), the same sums in the same order
        return np.sqrt(np.add.reduce(np.multiply(W, W, out=scratch), axis=0))

    norms = column_norms()
    dead = norms < 1e-12
    if np.any(dead):
        W[:, dead] = rng.random((W.shape[0], int(dead.sum())))
        H[dead, :] = 0.0
        norms = column_norms()
    W /= norms[None, :]
    H *= norms[:, None]


def fit_nmf(X: np.ndarray, k: int, alpha: float, *, seed: int, max_iters: int, rel_tol: float):
    """Fit k atoms of L1 weight ``alpha`` to X from a ``seed``-ed random
    start, alternating code/dictionary updates until the loss stalls.

    Returns (Dictionary, H, trace) where trace[0] is the loss of the
    random initialization and trace[i] the loss after iteration i, both
    computed from W^T X and W^T W. Stops when
    |L_i - L_{i-1}| / L_0 < rel_tol or max_iters is reached. A k, max_iters
    or seed that is not an integer of at least 1, 0 and 0, a negative or
    non-finite alpha, or a rel_tol not above 0 (NaN included) raises
    ``InvalidInputError`` naming it before X is read.

    Besides X and the k x n codes and products, the trainer holds W and
    two d x k buffers, allocated once and column-major: the W step and
    the rescale, ``_update_dictionary_normalized`` and ``_renormalize``,
    run in place in them, the W step on the W^T X and W^T W that the code
    step used, so W, H and the trace equal the step-by-step
    reference of the tests, which takes both steps on column-major copies,
    bit for bit. A NaN or infinite entry of X raises ``InvalidInputError``
    before any iteration.
    """
    k = check_integer("k", k, 1)
    max_iters = check_integer("max_iters", max_iters, 0)
    seed = check_integer("seed", seed, 0)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidInputError(f"L1 weight must be finite and >= 0, got {alpha}")
    if not rel_tol > 0:
        raise InvalidInputError("rel_tol must be positive")
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InvalidInputError("cannot factorize an empty matrix")
    # min and max are NaN when X holds a NaN, so these two passes see every
    # entry without a d x n mask
    lo, hi = float(X.min()), float(X.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("X must be finite: it holds NaN or Inf entries")
    if lo < 0:
        raise InvalidInputError("X must be non-negative")
    d, n = X.shape
    rng = np.random.default_rng(seed)
    W = np.asfortranarray(rng.random((d, k)))
    H = rng.random((k, n))
    work = _column_major_work(d, k)
    # start on the unit-column manifold so every iteration sees unit atoms
    _renormalize(W, H, rng, work[0])
    x = X.ravel(order="K")
    x_sq = float(x @ x)
    WtX, G = W.T @ X, W.T @ W
    l0 = loss(x_sq, WtX, G, H, alpha)
    trace = [l0]
    for _ in range(max_iters):
        H = update_code(WtX, G, H, alpha)
        _update_dictionary_normalized(X, W, H, WtX, G, work)
        _renormalize(W, H, rng, work[0])
        WtX, G = W.T @ X, W.T @ W
        trace.append(loss(x_sq, WtX, G, H, alpha))
        if l0 > 0 and abs(trace[-1] - trace[-2]) / l0 < rel_tol:
            break
    return Dictionary(W), H, trace


def save_dictionary(dictionary: Dictionary, path) -> None:
    """Binary format: magic, version u32, d u32, k u32, row-major f64 LE."""
    W = dictionary.atoms
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _FORMAT_VERSION, W.shape[0], W.shape[1]))
        fh.write(W.astype("<f8").tobytes(order="C"))


def load_dictionary(path) -> Dictionary:
    """Read a ``save_dictionary`` file; a file with no rows or no atoms,
    cut short, with bytes past its payload, or with a NaN, Inf or negative
    atom entry raises ``InvalidInputError``."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise InvalidInputError(f"{path}: header cut short")
        version, d, k = struct.unpack("<III", header)
        if version != _FORMAT_VERSION:
            raise InvalidInputError(f"{path}: unknown version {version}")
        if d == 0 or k == 0:
            raise InvalidInputError(f"{path}: empty {d}x{k} dictionary")
        payload = fh.read()
    if len(payload) != 8 * d * k:
        raise InvalidInputError(
            f"{path}: payload of {len(payload)} bytes, expected {8 * d * k} for {d}x{k}"
        )
    data = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(data)) or np.any(data < 0):
        raise InvalidInputError(f"{path}: atoms must be finite and non-negative")
    return Dictionary(data.reshape(d, k).copy())
