import numpy as np
import pytest

from onmfdenoise.errors import (
    DimensionMismatchError,
    EmptyInputError,
    UnsupportedFormatError,
)
from onmfdenoise.nmf import (
    Dictionary,
    NmfConfig,
    _update_dictionary_normalized,
    fit_nmf,
    load_dictionary,
    loss,
    renormalize_pair,
    save_dictionary,
    update_code,
)


def naive_loss(X, W, H, alpha):
    d, n = X.shape
    k = W.shape[1]
    total = 0.0
    for i in range(d):
        for j in range(n):
            acc = 0.0
            for r in range(k):
                acc += W[i, r] * H[r, j]
            total += 0.5 * (X[i, j] - acc) ** 2
    for r in range(k):
        for j in range(n):
            total += alpha * H[r, j]
    return total


class TestLoss:
    def test_exact_factorization_zero(self):
        rng = np.random.default_rng(0)
        W = rng.random((5, 2))
        H = rng.random((2, 4))
        assert loss(W @ H, W, H, 0.0) <= 1e-20

    def test_only_l1_term(self):
        X = np.zeros((2, 2))
        W = np.zeros((2, 2))
        H = np.array([[1.0, 0.5], [1.0, 0.5]])
        assert loss(X, W, H, 1.0) == pytest.approx(3.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.random((5, 4))
        W = rng.random((5, 2))
        H = rng.random((2, 4))
        assert loss(X, W, H, 0.5) == pytest.approx(naive_loss(X, W, H, 0.5), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loss(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 3)), 0.0)


class TestUpdates:
    def test_code_update_scalar_case(self):
        H = update_code(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), 0.0, 0.0)
        assert H[0, 0] == pytest.approx(2.0)

    def test_code_update_zero_fixed_point(self):
        rng = np.random.default_rng(2)
        X = rng.random((4, 3))
        W = rng.random((4, 2))
        assert not np.any(update_code(X, W, np.zeros((2, 3))))

    def test_code_update_identity_at_exact_fit(self):
        rng = np.random.default_rng(3)
        W = rng.random((4, 2)) + 0.1
        H = rng.random((2, 3)) + 0.1
        H2 = update_code(W @ H, W, H, 0.0)
        assert np.allclose(H2, H, rtol=1e-12)

    def test_dictionary_update_identity_at_exact_fit(self):
        rng = np.random.default_rng(4)
        W = rng.random((4, 2)) + 0.1
        H = rng.random((2, 3)) + 0.1
        W2 = _update_dictionary_normalized(W @ H, W, H, 0.0)
        assert np.allclose(W2, W, rtol=1e-12)

    def test_dictionary_zero_column_stays_zero(self):
        rng = np.random.default_rng(5)
        X = rng.random((4, 3))
        W = rng.random((4, 2))
        W[:, 1] = 0.0
        H = rng.random((2, 3))
        W2 = _update_dictionary_normalized(X, W, H)
        assert not np.any(W2[:, 1])

    def test_non_negativity_preserved(self):
        rng = np.random.default_rng(6)
        X = rng.random((6, 5))
        W = rng.random((6, 3))
        H = rng.random((3, 5))
        for _ in range(5):
            H = update_code(X, W, H, 0.5)
            W = _update_dictionary_normalized(X, W, H)
            assert np.all(H >= 0) and np.all(W >= 0)


class TestRenormalize:
    def test_product_preserved_and_unit_columns(self):
        rng = np.random.default_rng(7)
        W = rng.random((6, 3)) * 5
        H = rng.random((3, 4))
        W2, H2 = renormalize_pair(W, H)
        assert np.max(np.abs(W @ H - W2 @ H2)) <= 1e-12
        assert np.allclose(np.linalg.norm(W2, axis=0), 1.0, atol=1e-12)

    def test_dead_atom_reinitialized(self):
        rng = np.random.default_rng(8)
        W = rng.random((6, 3))
        W[:, 2] = 0.0
        H = rng.random((3, 4))
        W2, H2 = renormalize_pair(W, H, np.random.default_rng(0))
        assert np.linalg.norm(W2[:, 2]) == pytest.approx(1.0)
        assert not np.any(H2[2, :])


class TestFit:
    def test_rank1_recovery(self):
        rng = np.random.default_rng(9)
        X = np.outer(rng.random(20) + 0.1, rng.random(30) + 0.1)
        W, H, trace = fit_nmf(X, NmfConfig(k=1, alpha=0.0, rel_tol=1e-10, seed=9))
        resid = np.linalg.norm(X - W.atoms @ H) / np.linalg.norm(X)
        assert resid <= 1e-3

    def test_trace_non_increasing_alpha_zero(self):
        rng = np.random.default_rng(10)
        X = rng.random((20, 30))
        _, _, trace = fit_nmf(X, NmfConfig(k=4, rel_tol=1e-12, max_iters=100, seed=10))
        t = np.array(trace)
        assert np.all(t[1:] - t[:-1] <= 1e-10 * t[0])

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X = rng.random((12, 15))
        cfg = NmfConfig(k=3, alpha=1.0, max_iters=50, seed=7)
        W1, H1, _ = fit_nmf(X, cfg)
        W2, H2, _ = fit_nmf(X, cfg)
        assert np.array_equal(W1.atoms, W2.atoms)
        assert np.array_equal(H1, H2)

    def test_output_shapes_and_invariants(self):
        rng = np.random.default_rng(12)
        X = rng.random((10, 8))
        W, H, _ = fit_nmf(X, NmfConfig(k=3, max_iters=30, seed=0))
        assert W.atoms.shape == (10, 3)
        assert H.shape == (3, 8)
        assert np.all(W.atoms >= 0) and np.all(H >= 0)
        assert np.allclose(np.linalg.norm(W.atoms, axis=0), 1.0, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fit_nmf(np.zeros((0, 0)), NmfConfig(k=1))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        d = Dictionary(rng.random((7, 3)))
        path = tmp_path / "w.dict"
        save_dictionary(d, path)
        back = load_dictionary(path)
        assert np.array_equal(back.atoms, d.atoms)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "w.dict"
        save_dictionary(Dictionary(np.ones((2, 2))), path)
        assert path.read_bytes()[:8] == b"ONMFDICT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dict"
        path.write_bytes(b"NOTADICT" + b"\x00" * 20)
        with pytest.raises(UnsupportedFormatError):
            load_dictionary(path)
