
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

from onmfdenoise import onmf
from onmfdenoise.errors import InvalidInputError, NonFiniteResultError
from onmfdenoise.onmf import (
    OnmfState,
    SamplerConfig,
    _aux_elements,
    aggregate,
    fit_onmf,
    sample_batch,
    sparse_code,
    surrogate_value,
    update_dictionary_online,
)

from tests.conftest import batch_objective_oracle, peak_bytes, reference_sparse_code


def code(X, W, alpha):
    """``sparse_code`` of the columns of X against the dictionary W."""
    return sparse_code(X.T @ W, W.T @ W, alpha)


def build_state(rng, d, k, m, t):
    """Aggregate t random batches, keeping the history for oracles."""
    batches = [rng.random((d, m)) for _ in range(t)]
    codes = [rng.random((k, m)) for _ in range(t)]
    state = OnmfState(W=rng.random((d, k)), A=np.zeros((k, k)), B=np.zeros((k, d)), t=0)
    for X_s, H_s in zip(batches, codes):
        state = aggregate(state, H_s, X_s)
    return state, batches, codes


class TestSampler:
    def test_consecutive_full_width_is_identity(self):
        rng = np.random.default_rng(0)
        X = rng.random((4, 6))
        cfg = SamplerConfig(mode="consecutive", batch_cols=6, steps=1, seed=0)
        assert np.array_equal(sample_batch(X, cfg, 1), X)

    def test_consecutive_cyclic_indices(self):
        X = np.arange(10)[None, :].astype(float)
        cfg = SamplerConfig(mode="consecutive", batch_cols=4, steps=3, seed=0)
        batch = sample_batch(X, cfg, 3)
        assert list(batch[0]) == [8.0, 9.0, 0.0, 1.0]

    def test_uniform_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.random((3, 20))
        cfg = SamplerConfig(mode="uniform", batch_cols=5, steps=10, seed=3)
        assert np.array_equal(sample_batch(X, cfg, 4), sample_batch(X, cfg, 4))
        # different steps draw different columns
        assert not np.array_equal(sample_batch(X, cfg, 4), sample_batch(X, cfg, 5))

    @pytest.mark.parametrize(
        "field, value",
        [("batch_cols", 2.5), ("steps", 2.5), ("seed", 1.5), ("batch_cols", True), ("steps", "3")],
    )
    def test_integer_settings_reject_other_types_naming_the_field(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got"):
            SamplerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("batch_cols", 0), ("steps", -1), ("seed", -1)])
    def test_integer_settings_below_their_minimum_are_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be >= {value + 1}, got {value}"):
            SamplerConfig(**{field: value})

    def test_numpy_integer_settings_sample_as_ints_do(self):
        X = np.random.default_rng(2).random((3, 20))
        cfg = SamplerConfig(batch_cols=np.int64(5), steps=np.int32(3), seed=np.uint8(4))
        expected = sample_batch(X, SamplerConfig(batch_cols=5, steps=3, seed=4), 2)
        assert np.array_equal(sample_batch(X, cfg, 2), expected)

    def test_batch_too_wide(self):
        with pytest.raises(InvalidInputError, match="batch of 4 columns from a 3-column matrix"):
            sample_batch(np.ones((2, 3)), SamplerConfig(batch_cols=4), 1)


def kkt_residual(X, W, H, alpha):
    """Per-column norm of min(H, W^T W H - W^T X + alpha); zero at the optimum."""
    return np.linalg.norm(np.minimum(H, W.T @ W @ H - W.T @ X + alpha), axis=0)


def coding_problem(seed, d=40, k=12, m=200):
    """Unit-norm random atoms and columns built from sparse codes plus noise."""
    rng = np.random.default_rng(seed)
    W = rng.random((d, k))
    W /= np.linalg.norm(W, axis=0)
    H = 10.0 * rng.random((k, m)) * (rng.random((k, m)) < 0.3)
    return W @ H + rng.random((d, m)), W


class TestSparseCode:
    def test_recovers_scaled_column(self, monkeypatch):
        rng = np.random.default_rng(2)
        W = np.eye(4, 3) + 0.005 * rng.random((4, 3))
        W /= np.linalg.norm(W, axis=0)
        monkeypatch.setattr(onmf, "CODE_REL_TOL", 1e-8)
        monkeypatch.setattr(onmf, "CODE_MAX_ITERS", 1000)
        H = code(3.0 * W[:, 1:2], W, 0.0)
        off = (H.sum() - H[1, 0]) / H.sum()
        assert off <= 1e-4
        oracle, _ = nnls(W, 3.0 * W[:, 1])
        assert H[1, 0] == pytest.approx(oracle[1], abs=1e-3)

    def test_huge_alpha_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        W = rng.random((5, 3))
        X = rng.random((5, 4))
        alpha = float(np.abs(W.T @ X).max() * 1e3)
        assert np.max(code(X, W, alpha)) <= 1e-6

    def test_zero_input_zero_code(self):
        rng = np.random.default_rng(4)
        assert not np.any(code(np.zeros((4, 2)), rng.random((4, 3)), 1.0))

    @pytest.mark.parametrize("p_shape, g_shape", [((4, 3), (2, 2)), ((4, 3), (3, 2))])
    def test_products_that_do_not_conform_rejected(self, p_shape, g_shape):
        with pytest.raises(InvalidInputError, match="do not conform"):
            sparse_code(np.ones(p_shape), np.ones(g_shape), 0.0)

    @pytest.mark.parametrize("alpha", [-5.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_invalid_alpha_rejected(self, alpha):
        rng = np.random.default_rng(20)
        with pytest.raises(InvalidInputError, match="L1 weight must be finite and >= 0"):
            code(rng.random((4, 2)), rng.random((4, 3)), alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 5.0])
    def test_columns_stopped_before_cap_meet_kkt(self, alpha, monkeypatch):
        X, W = coding_problem(21)
        rel_tol, cap = 1e-3, 30
        monkeypatch.setattr(onmf, "CODE_REL_TOL", rel_tol)
        monkeypatch.setattr(onmf, "CODE_MAX_ITERS", cap)
        H = code(X, W, alpha)
        # a column still active at the cap takes one more step with cap + 1;
        # one that stopped earlier follows the same path in both runs
        monkeypatch.setattr(onmf, "CODE_MAX_ITERS", cap + 1)
        stopped = np.all(H == code(X, W, alpha), axis=0)
        assert 0 < stopped.sum() < X.shape[1]
        p_norm = np.linalg.norm(W.T @ X, axis=0)
        assert np.all(kkt_residual(X, W, H, alpha)[stopped] <= rel_tol * p_norm[stopped])

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 200])
    def test_column_code_does_not_depend_on_batch(self, size, alpha):
        X, W = coding_problem(22)
        full = code(X, W, alpha)
        idx = np.random.default_rng(size).permutation(X.shape[1])[:size]
        alone = code(X[:, idx], W, alpha)
        assert np.max(np.abs(alone - full[:, idx])) <= 1e-9 * np.max(np.abs(full[:, idx]))

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_nnls_at_alpha_zero(self, seed, rel_tol, monkeypatch):
        rng = np.random.default_rng(30 + seed)
        d, k, m = 20, 5, 6
        W = rng.random((d, k))
        X = W @ np.maximum(0.0, rng.standard_normal((k, m))) + 0.3 * rng.random((d, m))
        monkeypatch.setattr(onmf, "CODE_REL_TOL", rel_tol)
        monkeypatch.setattr(onmf, "CODE_MAX_ITERS", 100000)
        H = code(X, W, 0.0)
        eig = np.linalg.eigvalsh(W.T @ W)
        for j in range(m):
            h_star, _ = nnls(W, X[:, j])
            # the KKT residual r bounds the error of a mu-strongly convex
            # problem with an L-Lipschitz gradient: ||h - h*|| <= (1 + L)/mu ||r||
            bound = (1.0 + eig[-1]) / eig[0] * rel_tol * np.linalg.norm(W.T @ X[:, j])
            assert np.linalg.norm(H[:, j] - h_star) <= bound

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_zero_dictionary_gives_zero_codes(self, alpha):
        X = np.random.default_rng(23).random((6, 4))
        assert np.array_equal(code(X, np.zeros((6, 3)), alpha), np.zeros((3, 4)))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_coder(self, seed, alpha):
        rng = np.random.default_rng(40 + seed)
        d, k, m = (int(v) for v in rng.integers([5, 1, 1], [80, 60, 400]))
        X, W = coding_problem(40 + seed, d, k, m)
        ref = reference_sparse_code(X, W, alpha)
        assert np.max(np.abs(code(X, W, alpha) - ref)) <= 1e-9 * np.max(ref)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("prior, k", [("s_prime", 50), ("n_prime", 10)])
    def test_matches_reference_coder_on_fixture_priors(self, fixture_seed0, prior, k, alpha):
        X = fixture_seed0[prior].magnitudes
        # atoms drawn from the prior's own frames, as a trained dictionary's are
        W = X[:, np.random.default_rng(k).choice(X.shape[1], size=k, replace=False)]
        W = W / np.linalg.norm(W, axis=0)
        ref = reference_sparse_code(X, W, alpha)
        assert np.max(np.abs(code(X, W, alpha) - ref)) <= 1e-9 * np.max(ref)

    def test_one_gram_product_per_step(self, monkeypatch):
        X, W = coding_problem(24)
        k = W.shape[1]
        products = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, **kwargs):
                if np.shape(b) == (k, k) or np.shape(a) == (k, k):
                    products.append(a.shape)
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(onmf, "np", CountingNumpy())
        steps = 25
        # rel_tol 0: no column stops before the cap, so the loop runs all
        # `steps` steps and checks the KKT residual steps + 1 times
        monkeypatch.setattr(onmf, "CODE_REL_TOL", 0.0)
        monkeypatch.setattr(onmf, "CODE_MAX_ITERS", steps)
        H = code(X, W, 0.5)
        monkeypatch.undo()
        assert len(products) == steps + 1
        ref = reference_sparse_code(X, W, 0.5, rel_tol=0.0, max_iters=steps)
        assert np.max(np.abs(H - ref)) <= 1e-9 * np.max(ref)

    @pytest.mark.parametrize("d, k, m", [(40, 20, 400), (100, 50, 200)])
    @pytest.mark.parametrize("alpha", [0.0, 1e9])
    def test_working_memory_within_aux_count(self, d, k, m, alpha):
        X, W = coding_problem(25, d, k, m)
        peak, _ = peak_bytes(lambda: code(X, W, alpha))
        # the coder's share of the count with no batch and no dictionary:
        # A, G, M and six k x m arrays; plus a few length-m index vectors
        assert peak <= 8 * (_aux_elements(0, k, m) + 8 * m)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_sparse_code_is_finite_non_negative_and_zero_on_zero_input(data):
    d = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(0, 5))
    m = data.draw(st.integers(0, 6))
    entries = st.floats(0.0, 100.0, allow_subnormal=False)
    W = data.draw(arrays(np.float64, (d, k), elements=entries))
    X = data.draw(arrays(np.float64, (d, m), elements=entries))
    alpha = data.draw(st.floats(0.0, 100.0, allow_subnormal=False))
    H = code(X, W, alpha)
    assert H.shape == (k, m)
    assert np.all(np.isfinite(H)) and np.all(H >= 0)
    assert np.array_equal(code(np.zeros((d, m)), W, alpha), np.zeros((k, m)))
    ref = reference_sparse_code(X, W, alpha)
    assert np.max(np.abs(H - ref), initial=0.0) <= 1e-9 * np.max(ref, initial=0.0)


class TestAggregate:
    def test_first_step_exact(self):
        rng = np.random.default_rng(5)
        d, k, m = 4, 3, 5
        H = rng.random((k, m))
        X = rng.random((d, m))
        state = OnmfState(W=rng.random((d, k)), A=np.zeros((k, k)), B=np.zeros((k, d)), t=0)
        out = aggregate(state, H, X)
        assert np.allclose(out.A, H @ H.T)
        assert np.allclose(out.B, H @ X.T)
        assert out.t == 1

    def test_zero_code_is_pure_decay(self):
        rng = np.random.default_rng(6)
        d, k, m = 4, 2, 3
        state, _, _ = build_state(rng, d, k, m, 3)
        out = aggregate(state, np.zeros((k, m)), rng.random((d, m)))
        assert np.allclose(out.A, state.A * 3 / 4)

    def test_matches_shadow_sum_oracle(self):
        rng = np.random.default_rng(7)
        state, batches, codes = build_state(rng, 5, 3, 4, 7)
        shadow_A = sum(H @ H.T for H in codes) / len(codes)
        shadow_B = sum(H @ X.T for H, X in zip(codes, batches)) / len(codes)
        assert np.max(np.abs(state.A - shadow_A)) <= 1e-10
        assert np.max(np.abs(state.B - shadow_B)) <= 1e-10

    def test_aggregates_symmetric_psd_nonnegative(self):
        rng = np.random.default_rng(8)
        state, _, _ = build_state(rng, 6, 4, 5, 5)
        assert np.max(np.abs(state.A - state.A.T)) <= 1e-12
        assert np.all(state.A >= 0) and np.all(state.B >= 0)
        for _ in range(10):
            v = rng.standard_normal(4)
            assert v @ state.A @ v >= -1e-10


class TestDictionaryUpdate:
    def test_single_atom_analytic_minimizer(self):
        rng = np.random.default_rng(9)
        d = 5
        a = 2.5
        b = rng.random(d)
        state = OnmfState(
            W=rng.random((d, 1)), A=np.array([[a]]), B=b[None, :], t=1
        )
        W_raw = update_dictionary_online(state, normalize=False)
        assert np.allclose(W_raw[:, 0], b / a, atol=1e-8)
        W_norm = update_dictionary_online(state, normalize=True)
        assert np.allclose(W_norm[:, 0], b / np.linalg.norm(b), atol=1e-8)

    def test_surrogate_non_increasing_per_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            state, _, _ = build_state(rng, 6, 3, 5, 4)
            W = state.W
            prev = surrogate_value(W, state.A, state.B)
            for _ in range(5):
                W = update_dictionary_online(
                    OnmfState(W=W, A=state.A, B=state.B, t=state.t), normalize=False
                )
                cur = surrogate_value(W, state.A, state.B)
                assert cur <= prev + 1e-10 * abs(prev)
                prev = cur

    def test_degenerate_state_rejected(self):
        state = OnmfState(W=np.ones((3, 2)), A=np.zeros((2, 2)), B=np.zeros((2, 3)), t=0)
        with pytest.raises(InvalidInputError, match="no aggregated information yet"):
            update_dictionary_online(state)


class TestSurrogate:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_trace_form(self, seed):
        rng = np.random.default_rng(50 + seed)
        state, _, _ = build_state(rng, 30, 6, 8, 3)
        W = rng.random((30, 6))
        trace_form = 0.5 * np.trace(W @ state.A @ W.T) - np.trace(state.B @ W)
        assert surrogate_value(W, state.A, state.B) == pytest.approx(trace_form, rel=1e-12)

    def test_forms_no_d_by_d_matrix(self):
        rng = np.random.default_rng(55)
        d, k = 2049, 50
        W, A, B = rng.random((d, k)), rng.random((k, k)), rng.random((k, d))
        peak, _ = peak_bytes(lambda: surrogate_value(W, A, B))
        assert peak <= 4 * 8 * d * k


class TestOracleEquivalence:
    def test_single_batch_exact_fit_zero(self):
        rng = np.random.default_rng(11)
        W = rng.random((4, 2))
        H = rng.random((2, 3))
        assert batch_objective_oracle([W @ H], [H], W) <= 1e-20

    def test_surrogate_equals_average_up_to_constant(self):
        rng = np.random.default_rng(12)
        state, batches, codes = build_state(rng, 6, 3, 5, 4)
        const = sum(0.5 * np.sum(X * X) for X in batches) / len(batches)
        for _ in range(5):
            W = rng.random((6, 3))
            lhs = surrogate_value(W, state.A, state.B) + const
            rhs = batch_objective_oracle(batches, codes, W)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_coordinate_descent_matches_projected_gradient(self):
        rng = np.random.default_rng(13)
        state, batches, codes = build_state(rng, 6, 3, 5, 4)
        W_cd = state.W.copy()
        for _ in range(5000):
            W_next = update_dictionary_online(
                OnmfState(W=W_cd, A=state.A, B=state.B, t=4), normalize=False
            )
            if np.linalg.norm(W_next - W_cd) < 1e-12:
                W_cd = W_next
                break
            W_cd = W_next
        W_pg = state.W.copy()
        step = 1.0 / np.linalg.eigvalsh(state.A).max()
        for _ in range(50000):
            W_next = np.maximum(0.0, W_pg - step * (W_pg @ state.A - state.B.T))
            if np.linalg.norm(W_next - W_pg) < 1e-13:
                W_pg = W_next
                break
            W_pg = W_next
        assert np.linalg.norm(W_cd - W_pg) <= 1e-3


class TestFit:
    def test_rank1_recovery(self):
        rng = np.random.default_rng(14)
        u = rng.random(20) + 0.1
        X = np.outer(u, rng.random(40) + 0.1)
        cfg = SamplerConfig(mode="uniform", batch_cols=15, steps=50, seed=14)
        W = fit_onmf(X, 1, 0.0, cfg)
        cos = W.atoms[:, 0] @ u / (np.linalg.norm(W.atoms[:, 0]) * np.linalg.norm(u))
        assert np.arccos(np.clip(cos, -1, 1)) <= 1e-2

    def test_zero_steps_returns_initial(self):
        rng = np.random.default_rng(15)
        X = rng.random((6, 10))
        cfg = SamplerConfig(batch_cols=4, steps=0, seed=5)
        W = fit_onmf(X, 3, 0.0, cfg)
        init = np.random.default_rng(5).random((6, 3))
        init /= np.linalg.norm(init, axis=0)
        assert np.array_equal(W.atoms, init)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        X = rng.random((8, 20))
        cfg = SamplerConfig(batch_cols=6, steps=10, seed=9)
        assert np.array_equal(fit_onmf(X, 2, 0.5, cfg).atoms, fit_onmf(X, 2, 0.5, cfg).atoms)

    def test_training_log_written(self, tmp_path):
        import json

        rng = np.random.default_rng(17)
        X = rng.random((8, 20))
        log = tmp_path / "train.jsonl"
        fit_onmf(X, 2, 0.1, SamplerConfig(batch_cols=5, steps=4, seed=1), log_path=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [rec["step"] for rec in lines] == [1, 2, 3, 4]
        for rec in lines:
            assert {"surrogate", "code_sparsity", "aux_elements"} <= rec.keys()


class GuardedSource:
    """Column source that records every access for the streaming check."""

    def __init__(self, X):
        self._X = X
        self.shape = X.shape
        self.requests = []

    def take_columns(self, idx):
        self.requests.append(np.array(idx))
        return self._X[:, idx]


class TestMemoryContract:
    def test_consecutive_mode_touches_only_current_window(self, tmp_path):
        rng = np.random.default_rng(18)
        X = rng.random((10, 37))
        src = GuardedSource(X)
        m, T = 8, 12
        cfg = SamplerConfig(mode="consecutive", batch_cols=m, steps=T, seed=0)
        log = tmp_path / "train.jsonl"
        fit_onmf(src, 3, 0.1, cfg, log_path=log)
        # steps is a cap: the pass rule may stop at a boundary before it
        assert len(src.requests) <= T
        assert len(src.requests) == len(log.read_text().splitlines())
        n = X.shape[1]
        for t, idx in enumerate(src.requests, start=1):
            start = ((t - 1) * m) % n
            expected = (start + np.arange(m)) % n
            assert np.array_equal(idx, expected)

    def test_cap_below_two_passes_runs_every_step(self):
        # one pass is 5 steps; with fewer than 10 no boundary has an earlier one
        rng = np.random.default_rng(18)
        src = GuardedSource(rng.random((10, 37)))
        T = 9
        fit_onmf(src, 3, 0.1, SamplerConfig(mode="consecutive", batch_cols=8, steps=T, seed=0))
        assert len(src.requests) == T

    def test_traced_peak_within_aux_count_and_one_dictionary(self):
        d, n, k, m = 2049, 1000, 50, 100
        X = np.random.default_rng(20).random((d, n))
        cfg = SamplerConfig(mode="consecutive", batch_cols=m, steps=12, seed=0)
        peak, _ = peak_bytes(lambda: fit_onmf(X, k, 0.1, cfg))
        # the count leaves out the second d x k array alive while B is
        # folded or W refit, and vectors of length d, k or m
        assert peak <= 8 * (_aux_elements(d, k, m) + d * k + 4 * d)

    def test_silent_first_batches_skip_the_refit(self):
        rng = np.random.default_rng(21)
        X = rng.random((10, 40))
        X[:, :16] = 0.0  # the first two consecutive batches are silent
        cfg = SamplerConfig(mode="consecutive", batch_cols=8, steps=6, seed=4)
        W = fit_onmf(X, 3, 0.0, cfg).atoms
        init = np.random.default_rng(4).random((10, 3))
        init /= np.linalg.norm(init, axis=0)
        # the later batches moved the dictionary off its start
        assert not np.array_equal(W, init)
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-12)

    def test_aux_storage_bound(self, tmp_path):
        import json

        rng = np.random.default_rng(19)
        d, n, k, m = 12, 500, 3, 10
        X = rng.random((d, n))
        log = tmp_path / "mem.jsonl"
        cfg = SamplerConfig(mode="consecutive", batch_cols=m, steps=6, seed=2)
        fit_onmf(X, k, 0.1, cfg, log_path=log)
        for line in log.read_text().splitlines():
            rec = json.loads(line)
            # working set must scale with d*m + d*k + k^2, never with n
            assert rec["aux_elements"] <= 4 * (d * m + d * k + k * k + k * m)
            assert rec["aux_elements"] < d * n


def low_rank_source(seed, d=12, n=60):
    """Columns of one fixed non-negative rank-4 model: a stationary source."""
    rng = np.random.default_rng(seed)
    return rng.random((d, 4)) @ rng.random((4, n))


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestPassStop:
    @pytest.mark.parametrize("mode", ["uniform", "consecutive"])
    def test_stationary_source_stops_at_a_pass_boundary(self, tmp_path, mode):
        m, cap, per_pass = 15, 400, 4
        cfg = SamplerConfig(mode=mode, batch_cols=m, steps=cap, seed=3)
        fit_onmf(low_rank_source(21), 4, 0.0, cfg, log_path=tmp_path / "train.jsonl")
        run = len(read_log(tmp_path / "train.jsonl"))
        assert 2 * per_pass <= run < cap
        assert run % per_pass == 0

    @pytest.mark.parametrize("mode", ["uniform", "consecutive"])
    def test_stopped_runs_are_byte_identical(self, mode):
        cfg = SamplerConfig(mode=mode, batch_cols=15, steps=400, seed=3)
        sources = [GuardedSource(low_rank_source(22)) for _ in range(2)]
        atoms = [fit_onmf(src, 4, 0.1, cfg).atoms.tobytes() for src in sources]
        assert len(sources[0].requests) < 400
        assert atoms[0] == atoms[1]

    def test_log_keeps_every_step_and_gives_pass_change_at_boundaries(self, tmp_path):
        per_pass = 4
        cfg = SamplerConfig(mode="consecutive", batch_cols=15, steps=400, seed=3)
        fit_onmf(low_rank_source(21), 4, 0.0, cfg, log_path=tmp_path / "train.jsonl")
        records = read_log(tmp_path / "train.jsonl")
        assert [rec["step"] for rec in records] == list(range(1, len(records) + 1))
        surrogate = {rec["step"]: rec["surrogate"] for rec in records}
        for rec in records:
            t = rec["step"]
            assert {"surrogate", "code_sparsity", "aux_elements"} <= rec.keys()
            if t % per_pass:
                assert "pass_change" not in rec
            elif t == per_pass:
                assert rec["pass_change"] is None  # no earlier pass to compare with
            else:
                f, f_prev = surrogate[t], surrogate[t - per_pass]
                assert rec["pass_change"] == pytest.approx(abs(f - f_prev) / abs(f), rel=1e-12)
                # the run ends at the first boundary that meets the tolerance
                assert (rec["pass_change"] <= onmf.PASS_REL_TOL) == (t == len(records))

    @pytest.mark.parametrize("logged", [False, True])
    def test_surrogate_formed_once_per_boundary_or_logged_step(self, tmp_path, monkeypatch, logged):
        calls = []

        def counting(W, A, B):
            calls.append(1)
            return surrogate_value(W, A, B)

        monkeypatch.setattr(onmf, "surrogate_value", counting)
        src = GuardedSource(low_rank_source(21))
        log = tmp_path / "train.jsonl" if logged else None
        fit_onmf(src, 4, 0.0, SamplerConfig(batch_cols=15, steps=400, seed=3), log_path=log)
        run = len(src.requests)
        assert run < 400
        assert len(calls) == (run if logged else run // 4)

    def test_non_finite_surrogate_runs_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(onmf, "surrogate_value", lambda W, A, B: float("nan"))
        src = GuardedSource(low_rank_source(21))
        fit_onmf(src, 4, 0.0, SamplerConfig(batch_cols=15, steps=50, seed=3))
        assert len(src.requests) == 50


def _reject_constant(name):
    raise AssertionError(f"bare {name} is not JSON")


def strict_json_lines(path):
    return [json.loads(line, parse_constant=_reject_constant) for line in open(path)]


class TestNonFinite:
    def test_overflowing_prior_logs_null_and_raises(self, tmp_path):
        # one 1e308 entry overflows the aggregates: the surrogate and the
        # dictionary go non-finite, and coding against it raises
        X = np.random.default_rng(0).random((6, 20))
        X[2, 7] = 1e308
        log = tmp_path / "log.jsonl"
        sampler = SamplerConfig(mode="consecutive", batch_cols=5, steps=12)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResultError):
            fit_onmf(X, 2, 0.0, sampler, log_path=log)
        records = strict_json_lines(log)
        assert records[0]["surrogate"] is not None and records[-1]["surrogate"] is None

    def test_non_finite_pass_change_logged_as_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(onmf, "surrogate_value", lambda W, A, B: float("inf"))
        log = tmp_path / "log.jsonl"
        fit_onmf(low_rank_source(21), 4, 0.0, SamplerConfig(batch_cols=15, steps=12), log_path=log)
        records = strict_json_lines(log)
        assert len(records) == 12 and all(r["surrogate"] is None for r in records)
        assert [r["pass_change"] for r in records if "pass_change" in r] == [None] * 3

    def test_non_finite_gram_raises_before_coding(self):
        W = np.full((5, 3), 1e200)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteResultError):
            code(np.ones((5, 4)), W, 0.0)


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_steps_caps_the_run_and_a_stop_falls_on_a_later_pass_boundary(data):
    mode = data.draw(st.sampled_from(["uniform", "consecutive"]))
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, n))
    steps = data.draw(st.integers(0, 40))
    seed = data.draw(st.integers(0, 2**16))
    src = GuardedSource(np.random.default_rng(seed).random((5, n)) + 0.01)
    fit_onmf(src, 2, 0.0, SamplerConfig(mode=mode, batch_cols=m, steps=steps, seed=seed))
    run, per_pass = len(src.requests), -(-n // m)
    assert min(steps, 2 * per_pass) <= run <= steps
    assert run == steps or run % per_pass == 0
