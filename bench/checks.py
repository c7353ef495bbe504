"""Correctness checks on the program's outputs, kept apart from the program.

The SDR here is a projection BSS Eval decomposition (Vincent, Gribonval &
Fevotte, IEEE TASLP 2006) written without reference to
``onmfdenoise.metrics``: the estimate is projected onto span{clean, noise}
by solving the 2x2 normal equations. The target part is the projection on
the clean signal alone, interference is the rest of the span projection and
artifacts are what lies outside the span.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program broke a property the method guarantees."""


def _ratio_db(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def bss_db(estimate, clean, noise) -> tuple[float, float, float]:
    """(SDR, SIR, SAR) of ``estimate`` in dB against the two references."""
    e = np.asarray(estimate, dtype=np.float64)
    c = np.asarray(clean, dtype=np.float64)
    n = np.asarray(noise, dtype=np.float64)
    if not (e.shape == c.shape == n.shape):
        raise CheckFailed(f"lengths differ: {e.shape}, {c.shape}, {n.shape}")
    gram = np.array([[c @ c, c @ n], [n @ c, n @ n]])
    coef = np.linalg.solve(gram, np.array([c @ e, n @ e]))
    in_span = coef[0] * c + coef[1] * n
    target = (float(c @ e) / float(c @ c)) * c
    interf = in_span - target
    artif = e - in_span
    et, ei, ea = float(target @ target), float(interf @ interf), float(artif @ artif)
    return _ratio_db(et, ei + ea), _ratio_db(et, ei), _ratio_db(et + ei, ea)


def sdr_db(estimate, clean, noise) -> float:
    return bss_db(estimate, clean, noise)[0]


def check_close(measured: float, expected: float, tol: float, what: str) -> None:
    if not abs(measured - expected) <= tol:
        raise CheckFailed(f"{what}: {measured!r} differs from {expected!r} by more than {tol}")


def check_dictionary(atoms, name: str, tol: float = 1e-9) -> None:
    """Finite, non-negative atoms with unit L2 columns."""
    W = np.asarray(atoms)
    if W.ndim != 2 or W.size == 0:
        raise CheckFailed(f"{name}: not a non-empty matrix, shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise CheckFailed(f"{name}: non-finite atoms")
    if np.any(W < 0):
        raise CheckFailed(f"{name}: negative atoms (min {W.min()!r})")
    worst = float(np.max(np.abs(np.linalg.norm(W, axis=0) - 1.0)))
    if worst > tol:
        raise CheckFailed(f"{name}: column norms off unit by {worst!r}")


def check_mask(X, s_masked, n_masked, rtol: float = 1e-12) -> None:
    """The masked parts add back to |X| and the mask s/|X| lies in [0, 1]."""
    X = np.asarray(X)
    if not (X.shape == np.shape(s_masked) == np.shape(n_masked)):
        raise CheckFailed("mask operands differ in shape")
    tol = rtol * max(float(np.max(X)), 1.0)
    gap = float(np.max(np.abs(s_masked + n_masked - X)))
    if gap > tol:
        raise CheckFailed(f"masked parts miss |X| by {gap!r}")
    if np.any(s_masked < -tol) or np.any(s_masked > X + tol):
        raise CheckFailed("mask leaves [0, 1]")


def check_audio(samples, rate: int, length: int, expected_rate: int, what: str) -> None:
    """Finite output with the input's length and sample rate."""
    samples = np.asarray(samples)
    if samples.shape != (length,):
        raise CheckFailed(f"{what}: shape {samples.shape}, expected ({length},)")
    if rate != expected_rate:
        raise CheckFailed(f"{what}: sample rate {rate}, expected {expected_rate}")
    if not np.all(np.isfinite(samples)):
        raise CheckFailed(f"{what}: non-finite samples")
