import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onmfdenoise.audio_io import AudioBuffer
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.metrics import db_for_csv, decompose, evaluate

SR = 16000


def orthogonal_pair(n, seed=0):
    """Unit-norm clean and noise vectors with exact orthogonality."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n)
    n_vec = rng.standard_normal(n)
    n_vec -= (n_vec @ c) / (c @ c) * c
    c /= np.linalg.norm(c)
    n_vec /= np.linalg.norm(n_vec)
    return c, n_vec


def bufs(*arrays):
    return tuple(AudioBuffer(a, SR) for a in arrays)


def test_estimate_equal_clean_gives_sentinels():
    c, n = orthogonal_pair(500)
    est, clean, noise = bufs(c.copy(), c, n)
    report = evaluate(est, clean, noise)
    assert math.isinf(report.sdr_db)
    assert math.isinf(report.sir_db)
    assert math.isinf(report.sar_db)
    assert db_for_csv(report.sdr_db) == 300.0


def test_zero_estimate_scores_minus_inf():
    c, n = orthogonal_pair(500, seed=8)
    report = evaluate(*bufs(np.zeros(500), c, n))
    assert report.sdr_db == -math.inf
    assert report.sir_db == -math.inf
    assert db_for_csv(report.sdr_db) == -300.0


def test_estimate_orthogonal_to_clean_scores_minus_inf():
    # disjoint supports make the inner product with the clean signal exactly 0
    rng = np.random.default_rng(9)
    c = np.concatenate([rng.standard_normal(200), np.zeros(200)])
    est = np.concatenate([np.zeros(200), rng.standard_normal(200)])
    n = rng.standard_normal(400)
    report = evaluate(*bufs(est, c, n))
    assert report.sdr_db == -math.inf
    assert report.sir_db == -math.inf


def test_orthogonal_mixture_decomposition():
    c, n = orthogonal_pair(400, seed=1)
    est = c + n
    s_t, e_i, e_a = decompose(*bufs(est, c, n))
    assert np.allclose(s_t, c, atol=1e-10)
    assert np.allclose(e_i, n, atol=1e-10)
    assert np.max(np.abs(e_a)) <= 1e-10


def test_sir_closed_form():
    c, n = orthogonal_pair(600, seed=2)
    report = evaluate(*bufs(c + 0.1 * n, c, n))
    assert report.sir_db == pytest.approx(20.0, abs=0.01)
    assert math.isinf(report.sar_db)


def test_reconstruction_identity():
    rng = np.random.default_rng(3)
    c, n = orthogonal_pair(300, seed=3)
    est = rng.standard_normal(300)
    s_t, e_i, e_a = decompose(*bufs(est, c, n))
    assert np.max(np.abs(s_t + e_i + e_a - est)) <= 1e-10


def test_components_orthogonal():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(300)
    n = rng.standard_normal(300)
    est = rng.standard_normal(300)
    s_t, e_i, e_a = decompose(*bufs(est, c, n))
    scale = np.linalg.norm(est) ** 2
    assert abs(s_t @ e_i) <= 1e-9 * scale
    assert abs(s_t @ e_a) <= 1e-9 * scale
    assert abs(e_i @ e_a) <= 1e-9 * scale


def test_energy_partition():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(300)
    n = rng.standard_normal(300)
    est = rng.standard_normal(300)
    energies = [float(part @ part) for part in decompose(*bufs(est, c, n))]
    assert sum(energies) == pytest.approx(float(est @ est), rel=1e-6)


def test_scale_invariance():
    rng = np.random.default_rng(6)
    c = rng.standard_normal(400)
    n = rng.standard_normal(400)
    est = c + 0.3 * n + 0.05 * rng.standard_normal(400)
    r1 = evaluate(*bufs(est, c, n))
    r2 = evaluate(*bufs(7.5 * est, c, n))
    assert r1.sdr_db == pytest.approx(r2.sdr_db, abs=1e-9)
    assert r1.sir_db == pytest.approx(r2.sir_db, abs=1e-9)
    assert r1.sar_db == pytest.approx(r2.sar_db, abs=1e-9)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 400),
    exponent=st.integers(-60, 60),
)
def test_scores_invariant_to_a_common_scale(seed, n, exponent):
    # estimate, clean and noise all scaled by one factor: every energy
    # scales by its square, so no score may move, however small the level
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    est = c + 0.3 * noise + 0.05 * rng.standard_normal(n)
    scale = 10.0**exponent
    r1 = evaluate(*bufs(est, c, noise))
    r2 = evaluate(*bufs(scale * est, scale * c, scale * noise))
    for a, b in ((r1.sdr_db, r2.sdr_db), (r1.sir_db, r2.sir_db), (r1.sar_db, r2.sar_db)):
        assert math.isfinite(b) and b == pytest.approx(a, abs=1e-6)


def test_sir_monotone_in_noise_level():
    c, n = orthogonal_pair(500, seed=7)
    sirs = [
        evaluate(*bufs(c + beta * n, c, n)).sir_db for beta in (0.05, 0.1, 0.2, 0.4)
    ]
    assert all(a > b for a, b in zip(sirs, sirs[1:]))


def test_length_mismatch():
    with pytest.raises(InvalidInputError, match="lengths differ: estimate=10, clean=11, noise=10"):
        evaluate(
            AudioBuffer(np.ones(10), SR),
            AudioBuffer(np.ones(11), SR),
            AudioBuffer(np.ones(10), SR),
        )


def test_zero_reference():
    with pytest.raises(InvalidInputError, match="clean reference is identically zero"):
        evaluate(
            AudioBuffer(np.ones(10), SR),
            AudioBuffer(np.zeros(10), SR),
            AudioBuffer(np.ones(10), SR),
        )


def test_sample_rate_mismatch_with_noise():
    with pytest.raises(InvalidInputError, match="sample rates differ"):
        evaluate(
            AudioBuffer(np.ones(10), SR),
            AudioBuffer(np.ones(10), SR),
            AudioBuffer(np.ones(10), SR // 2),
        )


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_signal_rejected(which, bad):
    c, n = orthogonal_pair(50, seed=9)
    signals = [c + 0.1 * n, c, n]
    signals[which] = signals[which].copy()
    signals[which][17] = bad
    name = ("estimate", "clean", "noise")[which]
    with pytest.raises(InvalidInputError, match=f"{name} signal contains NaN or Inf samples"):
        evaluate(*bufs(*signals))
