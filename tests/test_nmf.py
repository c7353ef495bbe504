import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onmfdenoise import nmf
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.nmf import (
    EPSILON,
    Dictionary,
    _column_major_work,
    _renormalize,
    _update_dictionary_normalized,
    fit_nmf,
    load_dictionary,
    save_dictionary,
    update_code,
)
from tests.conftest import loss, peak_bytes


def renormalize_pair(W, H, rng):
    """``fit_nmf``'s rescale to unit atoms on copies, W column-major as
    ``fit_nmf`` lays it out; returns the new W and H."""
    W = W.copy(order="F")
    H = H.copy()
    _renormalize(W, H, rng, np.empty_like(W))
    return W, H


def w_step(X, W, H):
    """``fit_nmf``'s W step on a column-major copy of W, which it returns;
    W^T X and W^T W are formed from that copy, as ``fit_nmf`` forms them."""
    W = W.copy(order="F")
    return _update_dictionary_normalized(X, W, H, W.T @ X, W.T @ W, _column_major_work(*W.shape))


def three_buffer_w_step(X, W, H):
    """The W step with its column sums taken down the d x k products:
    numerator X H^T + W * sum_d(W * W H H^T), denominator
    W H H^T + W * sum_d(W * X H^T) + EPSILON. Test oracle for the step
    that takes those sums from W^T X and W^T W."""
    XHt = X @ H.T
    WHHt = W @ (H @ H.T)
    sum_numer = np.sum(W * WHHt, axis=0)
    sum_denom = np.sum(W * XHt, axis=0)
    return W * (XHt + W * sum_numer) / (WHHt + W * sum_denom + EPSILON)


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


def reference_fit_nmf(X, k, alpha, *, seed, max_iters, rel_tol):
    """The batch trainer with the code step taken from X and W and the loss
    from the explicit residual, one matrix product at a time."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    W = rng.random((X.shape[0], k))
    H = rng.random((k, X.shape[1]))
    W, H = renormalize_pair(W, H, rng)
    trace = [loss(X, W, H, alpha)]
    for _ in range(max_iters):
        numer = W.T @ X
        denom = W.T @ W @ H + alpha + EPSILON
        H = H * numer / denom
        W = w_step(X, W, H)
        W, H = renormalize_pair(W, H, rng)
        trace.append(loss(X, W, H, alpha))
        if trace[0] > 0 and abs(trace[-1] - trace[-2]) / trace[0] < rel_tol:
            break
    return W, H, trace


def assert_matches_reference(X, k, alpha, **settings):
    W, H, trace = fit_nmf(X, k, alpha, **settings)
    W_ref, H_ref, trace_ref = reference_fit_nmf(X, k, alpha, **settings)
    assert len(trace) == len(trace_ref) < settings["max_iters"] + 1
    assert np.array_equal(W.atoms, W_ref)
    assert np.array_equal(H, H_ref)
    assert np.allclose(trace, trace_ref, rtol=1e-12, atol=0.0)


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

    def test_product_form_never_negative_at_exact_fit(self):
        # at an exact fit the expansion cancels to a rounding error of
        # either sign (below zero for seeds 0, 5, 7, 8 and 9)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            W = rng.random((30, 4))
            H = rng.random((4, 20))
            x = (W @ H).ravel()
            value = nmf.loss(float(x @ x), W.T @ (W @ H), W.T @ W, H, 0.0)
            assert 0.0 <= value <= 1e-12 * float(x @ x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="shapes do not conform"):
            loss(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 3)), 0.0)


class TestUpdates:
    def test_code_update_scalar_case(self):
        W = np.array([[1.0]])
        H = update_code(W.T @ np.array([[2.0]]), W.T @ W, np.array([[1.0]]), 0.0)
        assert H[0, 0] == pytest.approx(2.0)

    def test_code_update_zero_fixed_point(self):
        rng = np.random.default_rng(2)
        X = rng.random((4, 3))
        W = rng.random((4, 2))
        assert not np.any(update_code(W.T @ X, W.T @ W, np.zeros((2, 3)), 0.0))

    def test_code_update_identity_at_exact_fit(self):
        rng = np.random.default_rng(3)
        W = rng.random((4, 2)) + 0.1
        H = rng.random((2, 3)) + 0.1
        H2 = update_code(W.T @ (W @ H), W.T @ W, H, 0.0)
        assert np.allclose(H2, H, rtol=1e-12)

    def test_code_update_dimension_mismatch(self):
        W = np.ones((4, 2))
        with pytest.raises(InvalidInputError, match="shapes do not conform: WtX"):
            update_code(W.T @ np.ones((4, 3)), W.T @ W, np.ones((3, 3)), 0.0)

    def test_dictionary_update_identity_at_exact_fit(self):
        rng = np.random.default_rng(4)
        W = rng.random((4, 2)) + 0.1
        H = rng.random((2, 3)) + 0.1
        W2 = w_step(W @ H, W, H)
        assert np.allclose(W2, W, rtol=1e-12)

    def test_dictionary_zero_column_stays_zero(self):
        rng = np.random.default_rng(5)
        X = rng.random((4, 3))
        W = rng.random((4, 2))
        W[:, 1] = 0.0
        H = rng.random((2, 3))
        W2 = w_step(X, W, H)
        assert not np.any(W2[:, 1])

    @pytest.mark.parametrize(
        "alpha, k, zero_col",
        [(0.0, 4, None), (1.0, 4, None), (50.0, 4, None), (1.0, 1, None), (1.0, 3, 1)],
    )
    def test_dictionary_update_equals_three_buffer_oracle(self, alpha, k, zero_col):
        rng = np.random.default_rng(20 + k)
        X = rng.random((40, 25)) * 3
        W = rng.random((40, k))
        W /= np.linalg.norm(W, axis=0)
        if zero_col is not None:
            W[:, zero_col] = 0.0
        H = update_code(W.T @ X, W.T @ W, rng.random((k, 25)), alpha)
        W2 = w_step(X, W, H)
        np.testing.assert_allclose(W2, three_buffer_w_step(X, W, H), rtol=1e-12, atol=0.0)
        if zero_col is not None:
            assert not np.any(W2[:, zero_col])

    def test_non_negativity_preserved(self):
        rng = np.random.default_rng(6)
        X = rng.random((6, 5))
        W = rng.random((6, 3))
        H = rng.random((3, 5))
        for _ in range(5):
            H = update_code(W.T @ X, W.T @ W, H, 0.5)
            W = w_step(X, W, H)
            assert np.all(H >= 0) and np.all(W >= 0)


class TestRenormalize:
    def test_product_preserved_and_unit_columns(self):
        rng = np.random.default_rng(7)
        W = rng.random((6, 3)) * 5
        H = rng.random((3, 4))
        W2, H2 = renormalize_pair(W, H, np.random.default_rng(0))
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
        W, H, trace = fit_nmf(X, 1, 0.0, seed=9, max_iters=500, rel_tol=1e-10)
        resid = np.linalg.norm(X - W.atoms @ H) / np.linalg.norm(X)
        assert resid <= 1e-3

    def test_trace_non_increasing_alpha_zero(self):
        rng = np.random.default_rng(10)
        X = rng.random((20, 30))
        _, _, trace = fit_nmf(X, 4, 0.0, seed=10, max_iters=100, rel_tol=1e-12)
        t = np.array(trace)
        assert np.all(t[1:] - t[:-1] <= 1e-10 * t[0])

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X = rng.random((12, 15))
        settings = dict(seed=7, max_iters=50, rel_tol=1e-4)
        W1, H1, _ = fit_nmf(X, 3, 1.0, **settings)
        W2, H2, _ = fit_nmf(X, 3, 1.0, **settings)
        assert np.array_equal(W1.atoms, W2.atoms)
        assert np.array_equal(H1, H2)

    def test_output_shapes_and_invariants(self):
        rng = np.random.default_rng(12)
        X = rng.random((10, 8))
        W, H, _ = fit_nmf(X, 3, 0.0, seed=0, max_iters=30, rel_tol=1e-4)
        assert W.atoms.shape == (10, 3)
        assert H.shape == (3, 8)
        assert np.all(W.atoms >= 0) and np.all(H >= 0)
        assert np.allclose(np.linalg.norm(W.atoms, axis=0), 1.0, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(InvalidInputError, match="cannot factorize an empty matrix"):
            fit_nmf(np.zeros((0, 0)), 1, 0.0, seed=0, max_iters=500, rel_tol=1e-4)

    @pytest.mark.parametrize("alpha", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(InvalidInputError, match="L1 weight must be finite and >= 0"):
            fit_nmf(np.ones((3, 4)), 2, alpha, seed=0, max_iters=500, rel_tol=1e-4)

    @pytest.mark.parametrize("max_iters", [-1, -500])
    def test_negative_iteration_cap_rejected(self, max_iters):
        # a negative cap would run no iteration and return the random start
        with pytest.raises(InvalidInputError, match="max_iters must be >= 0"):
            fit_nmf(np.ones((3, 4)), 2, 0.0, seed=0, max_iters=max_iters, rel_tol=1e-4)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("k", 2.5, "k must be an integer, got 2.5"),
            ("k", True, "k must be an integer, got True"),
            ("k", 0, "k must be >= 1, got 0"),
            ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_integer_arguments_are_checked_before_x_is_read(self, name, value, message):
        class Unreadable:
            def __array__(self, *args, **kwargs):
                raise AssertionError("X was read")

        settings = dict(k=2, seed=0, max_iters=3)
        settings[name] = value
        k = settings.pop("k")
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            fit_nmf(Unreadable(), k, 0.0, rel_tol=1e-4, **settings)

    def test_numpy_integer_arguments_fit_as_ints_do(self):
        X = np.random.default_rng(20).random((12, 15))
        W, H, trace = fit_nmf(X, 3, 0.0, seed=4, max_iters=5, rel_tol=1e-4)
        W2, H2, trace2 = fit_nmf(
            X, np.int64(3), 0.0, seed=np.uint8(4), max_iters=np.int32(5), rel_tol=1e-4
        )
        assert W2.atoms.tobytes() == W.atoms.tobytes() and H2.tobytes() == H.tobytes()
        assert trace2 == trace

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-4, np.nan, -np.inf])
    def test_stop_tolerance_that_is_not_positive_rejected(self, rel_tol):
        # a NaN tolerance never meets the stop rule, so the fit would run to its cap
        with pytest.raises(InvalidInputError, match="rel_tol must be positive"):
            fit_nmf(np.ones((3, 4)), 2, 0.0, seed=0, max_iters=500, rel_tol=rel_tol)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 100.0])
    def test_trace_entry_equals_direct_loss(self, alpha):
        rng = np.random.default_rng(14)
        X = rng.random((30, 25))
        for j in range(6):
            W, H, trace = fit_nmf(X, 4, alpha, seed=3, max_iters=j, rel_tol=1e-300)
            assert len(trace) == j + 1
            assert trace[j] == pytest.approx(loss(X, W.atoms, H, alpha), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        # neither is negative, and a NaN loss never meets the stop rule
        X = np.random.default_rng(18).random((20, 30))
        X[7, 11] = bad
        with pytest.raises(InvalidInputError, match="X must be finite"):
            fit_nmf(X, 3, 0.0, seed=0, max_iters=500, rel_tol=1e-4)

    def test_working_set_is_three_dictionaries(self):
        # a 2-minute-scale prior's width at the fixture STFT (d = 2049)
        d, n, k = 2049, 154, 50
        X = np.random.default_rng(17).random((d, n))
        peak, _ = peak_bytes(lambda: fit_nmf(X, k, 0.0, seed=0, max_iters=3, rel_tol=1e-4))
        # W and two d x k buffers, plus the k x n codes and their products
        assert peak <= 2.9 * 2**20

    def test_atoms_and_w_step_buffers_are_column_major(self, monkeypatch):
        import onmfdenoise.nmf as nmf_mod

        written = []

        def recording_step(X, W, H, WtX, G, work):
            written.extend([W, *work])
            return _update_dictionary_normalized(X, W, H, WtX, G, work)

        monkeypatch.setattr(nmf_mod, "_update_dictionary_normalized", recording_step)
        X = np.random.default_rng(19).random((30, 20))
        W, _, _ = fit_nmf(X, 4, 0.0, seed=0, max_iters=2, rel_tol=1e-4)
        # each atom contiguous: BLAS writes X H^T at full speed, and the
        # broadcasts and norms run down contiguous columns
        assert W.atoms.flags.f_contiguous
        assert len(written) == 6
        assert all(a.shape == (30, 4) and a.flags.f_contiguous for a in written)

    @pytest.mark.parametrize("source, seed, k", [("s_prime", 0, 50), ("n_prime", 1, 10)])
    def test_matches_residual_reference_on_fixture(self, fixture_seed0, source, seed, k):
        mags = fixture_seed0[source].magnitudes
        assert_matches_reference(mags, k, 0.0, seed=seed, max_iters=500, rel_tol=1e-4)

    @pytest.mark.parametrize("seed, alpha", [(0, 0.0), (1, 0.0), (2, 2.0), (3, 50.0)])
    def test_matches_residual_reference_on_random(self, seed, alpha):
        X = np.random.default_rng(16 + seed).random((40, 70)) * 3
        assert_matches_reference(X, 6, alpha, seed=seed, max_iters=500, rel_tol=1e-4)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        d = Dictionary(rng.random((7, 3)))
        path = tmp_path / "w.dict"
        save_dictionary(d, path)
        back = load_dictionary(path)
        assert np.array_equal(back.atoms, d.atoms)

    def test_column_major_atoms_save_as_their_row_major_copy(self, tmp_path):
        atoms = np.asfortranarray(np.random.default_rng(21).random((7, 3)))
        save_dictionary(Dictionary(atoms), tmp_path / "f.dict")
        save_dictionary(Dictionary(np.ascontiguousarray(atoms)), tmp_path / "c.dict")
        assert (tmp_path / "f.dict").read_bytes() == (tmp_path / "c.dict").read_bytes()
        assert np.array_equal(load_dictionary(tmp_path / "f.dict").atoms, atoms)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "w.dict"
        save_dictionary(Dictionary(np.ones((2, 2))), path)
        assert path.read_bytes()[:8] == b"ONMFDICT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dict"
        path.write_bytes(b"NOTADICT" + b"\x00" * 20)
        with pytest.raises(InvalidInputError, match="bad magic"):
            load_dictionary(path)

    def test_header_cut_short_rejected(self, tmp_path):
        path = tmp_path / "w.dict"
        save_dictionary(Dictionary(np.ones((3, 2))), path)
        raw = path.read_bytes()
        for cut in range(8, 20):
            path.write_bytes(raw[:cut])
            with pytest.raises(InvalidInputError, match="header cut short"):
                load_dictionary(path)

    def test_bytes_past_payload_rejected(self, tmp_path):
        path = tmp_path / "w.dict"
        save_dictionary(Dictionary(np.ones((3, 2))), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(InvalidInputError, match="payload of 56 bytes, expected 48 for 3x2"):
            load_dictionary(path)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 2)])
    def test_dictionary_without_rows_or_atoms_rejected(self, tmp_path, shape):
        path = tmp_path / "w.dict"
        save_dictionary(Dictionary(np.zeros(shape)), path)
        with pytest.raises(InvalidInputError, match=f"empty {shape[0]}x{shape[1]} dictionary"):
            load_dictionary(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_non_finite_or_negative_atom_rejected(self, tmp_path, bad):
        atoms = np.full((4, 2), 0.5)
        atoms[2, 1] = bad
        path = tmp_path / "w.dict"
        save_dictionary(Dictionary(atoms), path)
        with pytest.raises(InvalidInputError, match="atoms must be finite and non-negative"):
            load_dictionary(path)


# version 1, d = 3, k = 2, then the atoms row-major as little-endian f64
DICT_FILE = (
    b"ONMFDICT"
    + struct.pack("<III", 1, 3, 2)
    + np.linspace(0.1, 0.9, 6).astype("<f8").tobytes()
)


@pytest.fixture(scope="module")
def scratch_dict(tmp_path_factory):
    return tmp_path_factory.mktemp("prop") / "x.dict"


def loads_or_rejects(path, raw):
    """load_dictionary gives a Dictionary or InvalidInputError, nothing else."""
    path.write_bytes(raw)
    try:
        back = load_dictionary(path)
    except InvalidInputError:
        return
    assert isinstance(back, Dictionary)
    assert np.all(np.isfinite(back.atoms)) and np.all(back.atoms >= 0)


def test_saved_layout_is_magic_version_shape_payload(tmp_path):
    path = tmp_path / "w.dict"
    save_dictionary(Dictionary(np.linspace(0.1, 0.9, 6).reshape(3, 2)), path)
    assert path.read_bytes() == DICT_FILE


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, len(DICT_FILE) - 1))
def test_truncated_dictionary_loads_or_raises_unsupported_format(scratch_dict, cut):
    loads_or_rejects(scratch_dict, DICT_FILE[:cut])


@settings(max_examples=500, deadline=None, database=None)
@given(st.data())
def test_corrupted_dictionary_byte_loads_or_raises_unsupported_format(scratch_dict, data):
    raw = bytearray(DICT_FILE)
    i = data.draw(st.integers(0, len(raw) - 1))
    raw[i] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
    loads_or_rejects(scratch_dict, bytes(raw))
