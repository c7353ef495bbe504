"""Acceptance gate: one check per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``; each test prints a
``[acceptance NN] PASS/FAIL`` line naming the guarantee it covers.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from onmfdenoise.audio_io import AudioBuffer, write_wav
from onmfdenoise.metrics import db_for_csv, evaluate
from onmfdenoise.nmf import Dictionary, fit_nmf
from onmfdenoise.onmf import (
    OnmfState,
    SamplerConfig,
    aggregate,
    fit_onmf,
    surrogate_value,
    update_dictionary_online,
)
from onmfdenoise.pipeline import DenoiseConfig, DenoiseResult, denoise, train_dictionaries
from onmfdenoise.stft import StftParams, masked_inverse, stft

from tests.conftest import (
    FIXTURE_STFT,
    batch_objective_oracle,
    child_env,
    make_fixture,
    unit_mask,
)

SR = 16000
SEEDS = (0, 1, 2)


@contextmanager
def gate(number, label):
    try:
        yield
    except Exception:
        print(f"[acceptance {number:02d}] FAIL - {label}")
        raise
    print(f"[acceptance {number:02d}] PASS - {label}")


@pytest.fixture(scope="module")
def experiments():
    """Full two-trainer denoising run on the chord fixture, three seeds."""
    runs = {}
    for seed in SEEDS:
        fx = make_fixture(seed)
        sampler = SamplerConfig(mode="uniform", batch_cols=100, steps=100, seed=seed)
        reports = {}
        dicts = {}
        for trainer in ("batch", "online"):
            cfg = DenoiseConfig(
                trainer=trainer, stft=FIXTURE_STFT, sampler=sampler, seed=seed
            )
            w_s, w_n = train_dictionaries(fx["s_prime"], fx["n_prime"], cfg)
            result = denoise(fx["mixture"], w_s, w_n, cfg)
            reports[trainer] = evaluate(result.denoised, fx["clean"], fx["noise"])
            dicts[trainer] = (w_s, w_n)
        reports["original"] = evaluate(fx["mixture"], fx["clean"], fx["noise"])
        runs[seed] = {"fixture": fx, "reports": reports, "dicts": dicts}
    return runs


def test_stft_round_trip_on_random_buffers():
    with gate(1, "inverse transform recovers interior samples to 1e-6"):
        params = StftParams()
        rng = np.random.default_rng(0)
        start = time.monotonic()
        for trial in range(20):
            n = int(rng.integers(SR, 3 * SR + 1))
            x = rng.uniform(-1, 1, n)
            back = masked_inverse(AudioBuffer(x, SR), params, unit_mask(params)).samples
            lo = params.window_len
            hi = (len(back) // params.hop) * params.hop - params.window_len
            assert np.max(np.abs(back[lo:hi] - x[lo:hi])) <= 1e-6
        assert time.monotonic() - start < 5.0


def test_training_loss_never_increases():
    with gate(2, "batch training loss trace is monotone for small and large L1 weights"):
        rng = np.random.default_rng(1)
        for trial in range(20):
            X = rng.random((64, 200))
            for alpha in (0.0, 1.0, 100.0):
                _, _, trace = fit_nmf(X, 8, alpha, seed=trial, max_iters=60, rel_tol=1e-12)
                t = np.array(trace)
                assert np.all(t[1:] - t[:-1] <= 1e-10 * t[0])


def test_rank1_matrix_recovery_both_trainers():
    with gate(3, "single-atom fits recover a positive rank-1 matrix"):
        rng = np.random.default_rng(2)
        u = rng.random(40) + 0.1
        v = rng.random(120) + 0.1
        X = np.outer(u, v)
        start = time.monotonic()
        W, H, _ = fit_nmf(X, 1, 0.0, seed=2, max_iters=500, rel_tol=1e-10)
        assert np.linalg.norm(X - W.atoms @ H) / np.linalg.norm(X) <= 1e-3

        from onmfdenoise.onmf import sparse_code

        sampler = SamplerConfig(mode="uniform", batch_cols=40, steps=100, seed=2)
        W_on = fit_onmf(X, 1, 0.0, sampler)
        H_on = sparse_code(X.T @ W_on.atoms, W_on.atoms.T @ W_on.atoms, 0.0)
        assert np.linalg.norm(X - W_on.atoms @ H_on) / np.linalg.norm(X) <= 1e-2
        assert time.monotonic() - start < 10.0


def test_online_surrogate_matches_batch_objective():
    with gate(4, "streaming aggregates reproduce the batch objective and minimizer"):
        rng = np.random.default_rng(3)
        d, k, m, t = 6, 3, 5, 4
        for trial in range(10):
            batches = [rng.random((d, m)) for _ in range(t)]
            codes = [rng.random((k, m)) for _ in range(t)]
            state = OnmfState(
                W=rng.random((d, k)), A=np.zeros((k, k)), B=np.zeros((k, d)), t=0
            )
            for X_s, H_s in zip(batches, codes):
                state = aggregate(state, H_s, X_s)
            const = sum(0.5 * np.sum(X * X) for X in batches) / t
            for _ in range(3):
                W = rng.random((d, k))
                lhs = surrogate_value(W, state.A, state.B) + const
                rhs = batch_objective_oracle(batches, codes, W)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            # coordinate descent vs projected gradient on the same surrogate
            W_cd = state.W.copy()
            for _ in range(5000):
                W_next = update_dictionary_online(
                    OnmfState(W=W_cd, A=state.A, B=state.B, t=t), normalize=False
                )
                done = np.linalg.norm(W_next - W_cd) < 1e-12
                W_cd = W_next
                if done:
                    break
            W_pg = state.W.copy()
            step = 1.0 / np.linalg.eigvalsh(state.A).max()
            for _ in range(50000):
                W_next = np.maximum(0.0, W_pg - step * (W_pg @ state.A - state.B.T))
                done = np.linalg.norm(W_next - W_pg) < 1e-13
                W_pg = W_next
                if done:
                    break
            assert np.linalg.norm(W_cd - W_pg) <= 1e-3


def test_mask_is_additive_and_bounded():
    with gate(5, "ratio mask restores the mixture exactly with coefficients in [0,1]"):
        # the masked parts of the result denoise returns, with identity
        # dictionaries: multiplying by the identity is exact, so the codes
        # are the estimates the shipped mask turns into its ratio
        rng = np.random.default_rng(4)
        params = StftParams(32, 16, 32)
        eye = Dictionary(np.eye(params.n_bins))
        for _ in range(100):
            x = AudioBuffer(rng.uniform(-1.0, 1.0, 208), SR)
            X = stft(x, params).magnitudes  # 17 bins x 12 frames
            s = rng.random(X.shape)
            n = rng.random(X.shape)
            dead = rng.random(X.shape) < 0.25
            s[dead] = 0.0
            n[dead] = 0.0
            result = DenoiseResult(x, params, eye, eye, s, n, x)
            sm, nm = result.s_masked, result.n_masked
            assert np.max(np.abs(sm + nm - X)) <= 1e-12
            mask = np.divide(sm, X, out=np.full_like(sm, 0.5), where=X > 0)
            assert np.all(mask >= -1e-15) and np.all(mask <= 1 + 1e-15)


def test_metric_identities():
    with gate(6, "separation metrics hit their closed-form values"):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(800)
        n = rng.standard_normal(800)
        n -= (n @ c) / (c @ c) * c
        c /= np.linalg.norm(c)
        n /= np.linalg.norm(n)

        perfect = evaluate(
            AudioBuffer(c.copy(), SR), AudioBuffer(c, SR), AudioBuffer(n, SR)
        )
        assert math.isinf(perfect.sdr_db)
        assert math.isinf(perfect.sir_db)
        assert math.isinf(perfect.sar_db)
        assert db_for_csv(perfect.sir_db) == 300.0

        mixed = evaluate(
            AudioBuffer(c + 0.1 * n, SR), AudioBuffer(c, SR), AudioBuffer(n, SR)
        )
        assert mixed.sir_db == pytest.approx(20.0, abs=0.01)

        est = c + 0.3 * n + 0.05 * rng.standard_normal(800)
        r1 = evaluate(AudioBuffer(est, SR), AudioBuffer(c, SR), AudioBuffer(n, SR))
        r2 = evaluate(AudioBuffer(9.0 * est, SR), AudioBuffer(c, SR), AudioBuffer(n, SR))
        for a, b in ((r1.sdr_db, r2.sdr_db), (r1.sir_db, r2.sir_db), (r1.sar_db, r2.sar_db)):
            assert a == pytest.approx(b, abs=1e-9)


def test_denoising_beats_the_raw_mixture(experiments):
    with gate(7, "both trainers gain >= 3 dB SDR; online stays within 0.5 dB of batch"):
        start = time.monotonic()
        for seed in SEEDS:
            reports = experiments[seed]["reports"]
            base = reports["original"].sdr_db
            assert reports["batch"].sdr_db >= base + 3.0
            assert reports["online"].sdr_db >= base + 3.0
            assert reports["online"].sdr_db >= reports["batch"].sdr_db - 0.5
        assert time.monotonic() - start < 120.0


def test_streaming_trainer_memory_contract(tmp_path):
    with gate(8, "consecutive sampling reads only the current window; aux state stays small"):
        import json

        class GuardedSource:
            def __init__(self, X):
                self._X = X
                self.shape = X.shape
                self.requests = []

            def take_columns(self, idx):
                self.requests.append(np.array(idx))
                return self._X[:, idx]

        rng = np.random.default_rng(6)
        d, n, k, m, steps = 20, 600, 4, 25, 30
        src = GuardedSource(rng.random((d, n)))
        log = tmp_path / "train.jsonl"
        cfg = SamplerConfig(mode="consecutive", batch_cols=m, steps=steps, seed=0)
        fit_onmf(src, k, 0.1, cfg, log_path=log)
        assert len(src.requests) == steps
        for t, idx in enumerate(src.requests, start=1):
            expected = (((t - 1) * m) + np.arange(m)) % n
            assert np.array_equal(idx, expected)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == steps
        bound = 4 * (d * m + d * k + k * k + k * m)
        for rec in records:
            assert rec["aux_elements"] <= bound
            assert rec["aux_elements"] < d * n


def test_cli_runs_are_byte_deterministic(tmp_path):
    with gate(9, "every command produces byte-identical artifacts across reruns"):
        rng = np.random.default_rng(7)
        t = np.arange(SR) / SR
        clean = 0.3 * np.sin(2 * np.pi * 440 * t)
        noise = 0.05 * rng.standard_normal(SR)
        paths = {}
        for name, samples in (
            ("clean", clean),
            ("noise", noise),
            ("mixture", clean + noise),
        ):
            paths[name] = tmp_path / f"{name}.wav"
            write_wav(AudioBuffer(samples, SR), paths[name])

        small = [
            "--window-len", "256", "--hop", "128", "--fft-len", "256",
        ]

        def run(*args):
            res = subprocess.run(
                [sys.executable, "-m", "onmfdenoise.cli", *map(str, args)],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert res.returncode == 0, res.stderr
            return res

        artifacts = {}
        for run_id in ("a", "b"):
            out = tmp_path / run_id
            out.mkdir()
            run(
                "train",
                "--signal", paths["clean"], "--noise", paths["noise"],
                "--out-dir", out, "--k-signal", "3", "--k-noise", "2",
                "--max-iters", "30", "--seed", "0",
                "--steps", "10", "--batch-cols", "20", *small,
            )
            run(
                "denoise",
                "--dict-signal", out / "w_signal.dict",
                "--dict-noise", out / "w_noise.dict",
                "--input", paths["mixture"], "--output", out / "den.wav", *small,
            )
            run(
                "eval",
                "--clean", paths["clean"], "--noise", paths["noise"],
                "--nmf", out / "den.wav", "--noisy", paths["mixture"],
                "--out", out / "metrics.csv",
            )
            run(
                "sweep",
                "--dict-signal", out / "w_signal.dict",
                "--dict-noise", out / "w_noise.dict",
                "--input", paths["mixture"], "--clean", paths["clean"],
                "--noise", paths["noise"], "--alphas", "50,100",
                "--out", out / "sweep.csv", *small,
            )
            run(
                "spectrogram",
                "--input", paths["mixture"], "--out", out / "spec.pgm",
                "--csv", out / "spec.csv", *small,
            )
            artifacts[run_id] = [
                (out / name).read_bytes()
                for name in (
                    "w_signal.dict", "w_noise.dict", "den.wav",
                    "metrics.csv", "sweep.csv", "spec.pgm", "spec.csv",
                )
            ]
        assert artifacts["a"] == artifacts["b"]


def test_interference_rejection_peaks_at_interior_sparsity(experiments):
    with gate(10, "SIR over the sparsity-weight grid peaks strictly inside the grid"):
        alphas = (25.0, 50.0, 100.0, 200.0, 400.0)
        interior_hits = 0
        for seed in SEEDS:
            fx = experiments[seed]["fixture"]
            w_s, w_n = experiments[seed]["dicts"]["batch"]
            sirs = []
            for alpha in alphas:
                cfg = DenoiseConfig(stft=FIXTURE_STFT, code_alpha=alpha, seed=seed)
                result = denoise(fx["mixture"], w_s, w_n, cfg)
                sirs.append(
                    evaluate(result.denoised, fx["clean"], fx["noise"]).sir_db
                )
            if 0 < int(np.argmax(sirs)) < len(alphas) - 1:
                interior_hits += 1
        assert interior_hits >= 2
