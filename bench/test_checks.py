"""Tests of the benchmark's own correctness checks.

Run with ``python3 -m pytest bench/test_checks.py`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (  # noqa: E402
    CheckFailed,
    bss_db,
    check_audio,
    check_close,
    check_dictionary,
    check_mask,
    sdr_db,
)


def _orthogonal_pair(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n)
    v = rng.standard_normal(n)
    v -= (v @ c) / (c @ c) * c
    v *= np.linalg.norm(c) / np.linalg.norm(v)
    return c, v


def test_orthogonal_noise_at_one_tenth_gives_20_db_sir():
    c, n = _orthogonal_pair()
    sdr, sir, sar = bss_db(c + 0.1 * n, c, n)
    assert sir == pytest.approx(20.0, abs=1e-9)
    assert sdr == pytest.approx(20.0, abs=1e-9)
    assert sar > 200.0  # no artifact, up to rounding


def test_artifact_outside_the_span_sets_sar():
    c, n = _orthogonal_pair()
    a = np.random.default_rng(1).standard_normal(c.size)
    basis = np.stack([c, n], axis=1)
    a -= basis @ np.linalg.lstsq(basis, a, rcond=None)[0]
    a *= 0.01 * np.linalg.norm(c) / np.linalg.norm(a)
    sdr, sir, sar = bss_db(c + a, c, n)
    assert sar == pytest.approx(40.0, abs=1e-9)
    assert sdr == pytest.approx(40.0, abs=1e-9)
    assert sir > 200.0  # no interference, up to rounding


@pytest.mark.parametrize("scale", [1e-3, 0.5, 7.0])
def test_scaling_the_estimate_leaves_sdr_unchanged(scale):
    rng = np.random.default_rng(2)
    c, n = rng.standard_normal(3000), rng.standard_normal(3000)
    e = c + 0.3 * n + 0.05 * rng.standard_normal(3000)
    assert sdr_db(scale * e, c, n) == pytest.approx(sdr_db(e, c, n), abs=1e-9)


def test_sdr_agrees_with_the_package_metric():
    from onmfdenoise.audio_io import AudioBuffer
    from onmfdenoise.metrics import evaluate

    rng = np.random.default_rng(3)
    c, n = rng.standard_normal(5000), rng.standard_normal(5000)
    e = 0.8 * c + 0.2 * n + 0.1 * rng.standard_normal(5000)
    report = evaluate(AudioBuffer(e, 16000), AudioBuffer(c, 16000), AudioBuffer(n, 16000))
    ours = bss_db(e, c, n)
    assert ours == pytest.approx((report.sdr_db, report.sir_db, report.sar_db), abs=1e-6)


def test_length_mismatch_is_a_failed_check():
    with pytest.raises(CheckFailed):
        bss_db(np.ones(3), np.ones(4), np.ones(4))


def test_unit_nonnegative_dictionary_passes():
    W = np.random.default_rng(4).random((20, 5))
    check_dictionary(W / np.linalg.norm(W, axis=0), "W")


@pytest.mark.parametrize(
    "damage",
    [
        lambda W: W * (1 + 1e-8),
        lambda W: np.where(np.arange(W.size).reshape(W.shape) == 0, -1e-3, W),
        lambda W: np.where(np.arange(W.size).reshape(W.shape) == 3, np.nan, W),
        lambda W: W[:, :0],
    ],
    ids=["norm", "negative", "nan", "empty"],
)
def test_damaged_dictionary_fails(damage):
    W = np.random.default_rng(5).random((20, 5))
    W /= np.linalg.norm(W, axis=0)
    with pytest.raises(CheckFailed):
        check_dictionary(damage(W), "W")


def test_ratio_mask_passes_and_broken_masks_fail():
    rng = np.random.default_rng(6)
    X = rng.random((30, 40))
    ratio = rng.random((30, 40))
    check_mask(X, ratio * X, X - ratio * X)
    with pytest.raises(CheckFailed):
        check_mask(X, ratio * X, X - ratio * X + 1e-6)  # parts do not add back
    with pytest.raises(CheckFailed):
        check_mask(X, 1.5 * X, -0.5 * X)  # adds back, but mask > 1


def test_audio_check():
    check_audio(np.zeros(10), 16000, 10, 16000, "out")
    for samples, rate in ((np.zeros(9), 16000), (np.zeros(10), 8000), (np.full(10, np.inf), 16000)):
        with pytest.raises(CheckFailed):
            check_audio(samples, rate, 10, 16000, "out")


def test_check_close():
    check_close(1.0, 1.0 + 1e-7, 1e-6, "x")
    with pytest.raises(CheckFailed):
        check_close(1.0, 1.0 + 1e-5, 1e-6, "x")
    with pytest.raises(CheckFailed):
        check_close(float("nan"), 1.0, 1e-6, "x")
