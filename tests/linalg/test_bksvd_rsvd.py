"""Tests for the randomized SVD engines (BKSVD and Halko rSVD)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ParameterError
from repro.graph import figure1_graph, from_edges, powerlaw_community
from repro.linalg import bksvd, default_krylov_iterations, randomized_svd
from repro.linalg.bksvd import _orthonormal_extension


def _low_rank_matrix(n, d, rank, noise, seed):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, d))
    return left @ right + noise * rng.standard_normal((n, d))


def test_bksvd_recovers_low_rank():
    mat = _low_rank_matrix(120, 100, 5, 0.0, 0)
    u, s, v = bksvd(mat, 5, seed=1)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, mat, atol=1e-6)


def test_bksvd_matches_exact_singular_values():
    mat = _low_rank_matrix(80, 80, 8, 0.01, 2)
    _, s_exact, _ = np.linalg.svd(mat)
    _, s_approx, _ = bksvd(mat, 8, seed=3)
    np.testing.assert_allclose(s_approx, s_exact[:8], rtol=1e-3)


def _community_adjacency(directed):
    graph, _ = powerlaw_community(400, 1200, num_communities=4,
                                  directed=directed, seed=1)
    return graph.adjacency()


def test_bksvd_spectral_error_bound():
    """(1 + eps) sigma_{k+1} spectral bound of Musco & Musco.

    On the 400-node graphs k' (q + 1) = 128 < n: the basis is not all of
    R^n, so BKSVD is not an exact SVD there.
    """
    eps = 0.2
    cases = {"low_rank": (_low_rank_matrix(100, 100, 20, 0.05, 4), 10),
             "undirected_graph": (_community_adjacency(False), 16),
             "directed_graph": (_community_adjacency(True), 16)}
    for name, (matrix, k) in cases.items():
        u, s, v = bksvd(matrix, k, eps=eps, seed=5)
        dense = matrix.toarray() if sp.issparse(matrix) else matrix
        s_exact = np.linalg.svd(dense, compute_uv=False)
        spectral = np.linalg.norm(dense - u @ np.diag(s) @ v.T, 2)
        assert spectral <= (1 + eps) * s_exact[k], name
        np.testing.assert_allclose(s, s_exact[:k], rtol=0,
                                   atol=1e-6 * s_exact[k], err_msg=name)


def test_bksvd_sparse_input(fig1):
    a = fig1.adjacency()
    u, s, v = bksvd(a, 4, seed=0)
    dense_u, dense_s, dense_vt = np.linalg.svd(a.toarray())
    np.testing.assert_allclose(s, dense_s[:4], rtol=1e-6)


def test_bksvd_orthonormal_u():
    mat = _low_rank_matrix(60, 50, 10, 0.1, 6)
    u, _, _ = bksvd(mat, 6, seed=7)
    np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-8)


def test_bksvd_deterministic_given_seed():
    mat = sp.random(80, 80, density=0.1, random_state=0, format="csr")
    u1, s1, v1 = bksvd(mat, 5, seed=42)
    u2, s2, v2 = bksvd(mat, 5, seed=42)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(s1, s2)


def test_bksvd_sign_convention():
    mat = _low_rank_matrix(40, 40, 5, 0.0, 8)
    u, _, _ = bksvd(mat, 3, seed=9)
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(3)])
    assert np.all(signs > 0)


def test_bksvd_memory_guard_reduces_depth():
    mat = _low_rank_matrix(50, 50, 5, 0.1, 10)
    # should not fail even with tiny budget
    u, s, v = bksvd(mat, 8, max_krylov_cols=16, seed=0)
    assert u.shape == (50, 8)


def _star(num_nodes):
    leaves = np.arange(1, num_nodes)
    return from_edges(num_nodes, np.zeros_like(leaves), leaves,
                      directed=False).adjacency()


def _complete_bipartite(left, right):
    src, dst = np.meshgrid(np.arange(left), left + np.arange(right),
                           indexing="ij")
    return from_edges(left + right, src.ravel(), dst.ravel(),
                      directed=False).adjacency()


EXHAUSTED_KRYLOV = {
    "figure1_rank7": (lambda: figure1_graph().adjacency(), 4),
    "star_rank2": (lambda: _star(300), 8),
    "complete_bipartite_rank2": (lambda: _complete_bipartite(40, 60), 8),
    "zero": (lambda: np.zeros((40, 40)), 5),
    "rank3": (lambda: _low_rank_matrix(80, 70, 3, 0.0, 15), 5),
    "basis_fills_n": (lambda: _low_rank_matrix(40, 40, 40, 0.0, 16), 20),
    "tall": (lambda: _low_rank_matrix(200, 30, 30, 0.0, 17), 8),
    "wide": (lambda: _low_rank_matrix(30, 200, 30, 0.0, 18), 8),
}


@pytest.mark.parametrize("case", sorted(EXHAUSTED_KRYLOV))
def test_bksvd_exhausted_krylov_space(case):
    """rank(A) < k'(q+1): the basis stays orthonormal and the SVD exact.

    Zero singular values come back as square roots of rounding error
    (about 1e-8 sigma_1), hence the 1e-7 sigma_1 tolerance on sigma.
    """
    build, k = EXHAUSTED_KRYLOV[case]
    mat = build()
    dense = mat.toarray() if sp.issparse(mat) else mat
    u, s, v = bksvd(mat, k, seed=0)
    s_exact = np.linalg.svd(dense, compute_uv=False)
    np.testing.assert_allclose(u.T @ u, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(s, s_exact[:k], rtol=0,
                               atol=1e-7 * s_exact[0])
    # A^T U = V Sigma, which PPRFactorState.v_scaled relies on
    np.testing.assert_allclose(dense.T @ u, v * s, rtol=0,
                               atol=1e-12 * s_exact[0])


@pytest.mark.parametrize("case", sorted(EXHAUSTED_KRYLOV))
def test_bksvd_exhausted_krylov_space_float32(case):
    """The cases above in float32, with tolerances written in float32's
    machine epsilon: the lost-column threshold scales with the dtype, so
    the basis still stays orthonormal and the SVD exact."""
    build, k = EXHAUSTED_KRYLOV[case]
    mat = build().astype(np.float32)
    dense = (mat.toarray() if sp.issparse(mat) else mat).astype(np.float64)
    u, s, v = bksvd(mat, k, seed=0)
    assert u.dtype == s.dtype == v.dtype == np.float32
    eps = float(np.finfo(np.float32).eps)
    u, s, v = (a.astype(np.float64) for a in (u, s, v))
    s_exact = np.linalg.svd(dense, compute_uv=False)
    np.testing.assert_allclose(u.T @ u, np.eye(k), rtol=0, atol=200 * eps)
    np.testing.assert_allclose(s, s_exact[:k], rtol=0,
                               atol=np.sqrt(eps) * s_exact[0])
    np.testing.assert_allclose(dense.T @ u, v * s, rtol=0,
                               atol=200 * eps * s_exact[0])


DTYPE_POLICY = {"float32": (np.float32, np.float32),
                "float64": (np.float64, np.float64),
                "int64": (np.int64, np.float64),
                "bool": (np.bool_, np.float64)}


@pytest.mark.parametrize("svd", [bksvd, randomized_svd],
                         ids=["bksvd", "rsvd"])
@pytest.mark.parametrize("name", sorted(DTYPE_POLICY))
def test_svd_works_in_its_input_dtype(svd, name):
    """float32 stays float32; every other input runs in float64 and
    gives what its float64 copy gives."""
    dtype, expect = DTYPE_POLICY[name]
    adjacency = _community_adjacency(False)
    for mat in (adjacency, adjacency.toarray()):
        u, s, v = svd(mat.astype(dtype), 8, seed=3)
        assert u.dtype == s.dtype == v.dtype == expect
        if expect == np.float64:
            reference = svd(mat.astype(np.float64), 8, seed=3)
            for got, want in zip((u, s, v), reference):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("directed", [False, True],
                         ids=["undirected", "directed"])
def test_bksvd_orthonormalizes_graph_blocks_without_householder(
        monkeypatch, directed):
    """k' = 16: eight blocks fill 128 of the 400 dimensions, and
    Cholesky-QR2 takes every one of them."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    u, _, _ = bksvd(_community_adjacency(directed), 16, seed=5)
    np.testing.assert_allclose(u.T @ u, np.eye(16), rtol=0, atol=1e-13)


def _leaning_block(residual):
    """A 500 x 8 Gaussian block whose last column is its first plus an
    orthogonal step of ``residual`` times the first column's norm."""
    rng = np.random.default_rng(2)
    block = rng.standard_normal((500, 8))
    step = rng.standard_normal(500)
    first = block[:, 0]
    step -= first * (first @ step) / (first @ first)
    step *= residual * np.linalg.norm(first) / np.linalg.norm(step)
    block[:, -1] = first + step
    return block


@pytest.mark.parametrize("residual", [1e-4, 1e-6, 3e-8, 2e-8])
def test_orthonormal_extension_of_ill_conditioned_blocks(monkeypatch,
                                                         residual):
    """Cholesky-QR2 squares the condition number (here about 1 /
    residual), so near the lost-column threshold the block goes to
    Householder QR. Either way the result is orthonormal and spans the
    block, whose columns are all kept: the residual is above 1e-8."""
    calls = []
    householder = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return householder(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    block = _leaning_block(residual)
    q = _orthonormal_extension(block.copy(), np.empty((500, 0)),
                               np.random.default_rng(1))
    np.testing.assert_allclose(q.T @ q, np.eye(8), rtol=0, atol=1e-12)
    outside = block - q @ (q.T @ block)
    assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(block)
    if residual == 1e-4:
        assert calls == []
    if residual == 2e-8:
        assert calls


def test_bksvd_rejects_bad_rank():
    mat = np.eye(5)
    with pytest.raises(ParameterError):
        bksvd(mat, 0)
    with pytest.raises(ParameterError):
        bksvd(mat, 10)
    with pytest.raises(ParameterError):
        bksvd(mat, 2, num_iters=-3)


@pytest.mark.parametrize("bad", [
    {"rank": 3.0}, {"num_iters": 2.5}, {"max_krylov_cols": 64.0},
    {"eps": float("nan")}, {"eps": 0.0}, {"eps": -0.2}])
def test_bksvd_rejects_bad_inputs_with_parameter_error(bad):
    """Non-integer counts and a NaN eps are ParameterErrors, not the
    bare TypeError or ValueError of the arithmetic they would reach."""
    args = {"rank": 3, **bad}
    with pytest.raises(ParameterError, match=next(iter(bad))):
        bksvd(np.eye(8), args.pop("rank"), **args)


def test_default_krylov_iterations_monotone_in_eps():
    n = 10_000
    assert (default_krylov_iterations(n, 0.1)
            >= default_krylov_iterations(n, 0.9))


def test_default_krylov_iterations_bounds():
    assert 4 <= default_krylov_iterations(100, 0.5) <= 15
    with pytest.raises(ParameterError):
        default_krylov_iterations(100, 0.0)


def test_rsvd_recovers_low_rank():
    mat = _low_rank_matrix(100, 90, 6, 0.0, 11)
    u, s, v = randomized_svd(mat, 6, seed=12)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, mat, atol=1e-5)


def test_rsvd_vs_bksvd_on_noisy_matrix():
    """Block Krylov should match or beat plain power iteration."""
    mat = _low_rank_matrix(150, 150, 30, 0.3, 13)
    _, s_exact, _ = np.linalg.svd(mat)
    _, s_bk, _ = bksvd(mat, 10, num_iters=8, seed=14)
    _, s_rs, _ = randomized_svd(mat, 10, power_iters=2, oversample=2, seed=14)
    err_bk = np.abs(s_bk - s_exact[:10]).max()
    err_rs = np.abs(s_rs - s_exact[:10]).max()
    assert err_bk <= err_rs + 1e-6


def test_rsvd_rejects_bad_rank():
    with pytest.raises(ParameterError):
        randomized_svd(np.eye(4), 9)
    for bad in ({"oversample": -3}, {"oversample": -10},
                {"power_iters": -1}):
        with pytest.raises(ParameterError):
            randomized_svd(np.eye(8), 6, **bad)


@pytest.mark.parametrize("bad", [
    {"rank": 3.0}, {"oversample": 2.5}, {"power_iters": 1.5}])
def test_rsvd_rejects_non_integer_counts(bad):
    args = {"rank": 3, **bad}
    with pytest.raises(ParameterError, match=next(iter(bad))):
        randomized_svd(np.eye(8), args.pop("rank"), **args)
