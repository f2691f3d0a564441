"""Randomized Block Krylov SVD (Musco & Musco, NeurIPS 2015).

This is the ``BKSVD`` routine that Algorithm 1 of the NRP paper calls to
factorize the adjacency matrix: given a sparse ``A`` and rank ``k'`` it
returns ``U, sigma, V`` with ``U diag(sigma) V^T ~= A`` and a
``(1 + eps)``-relative spectral-norm guarantee after
``O(log n / sqrt(eps))`` iterations.

The implementation follows Algorithm 2 of Musco & Musco:

1. draw a Gaussian block ``Pi`` of ``k'`` columns and start the Krylov
   basis ``Q`` with an orthonormal basis of ``A Pi``;
2. grow ``Q`` one block at a time: the next block ``A (A^T Q_i)``
   spans the next Krylov power ``(A A^T)^(i+1) A Pi`` modulo the blocks
   before it. It is projected off the basis so far by block classical
   Gram--Schmidt, applied twice, then orthonormalized by Cholesky-QR2
   and written into a preallocated ``n x c`` basis, ``c = min(k' (q +
   1), n, d)``. Every ``A^T Q_i`` the recurrence forms is kept in a
   ``d x c`` array, so ``A^T Q`` is complete when the basis is.
   Cholesky-QR2 factors the block's Gram matrix ``W^T W = L L^T``, takes
   ``Q_1 = W L^-T`` and repeats this once on ``Q_1``: four ``n x k'``
   GEMMs and two ``k' x k'`` factorizations. On a 6000 x 64 Gaussian
   block that takes about 7 ms, where Householder QR, bound by its
   panel updates, takes about 45 ms;
3. Cholesky-QR2 squares the block's condition number, so its first pass
   drifts from orthonormal by about ``eps_mach cond(W)^2``. The block
   goes to Householder QR instead when the Cholesky fails, when a
   first-pass pivot is at most ``1e-8`` of its column's norm before
   projection (the lost-column test below), or when ``||Q_1^T Q_1 -
   I||_F > 0.01``. That guard is enough. It bounds the spectral norm as
   well, so the singular values of ``Q_1`` lie within 0.5% of 1: the
   second pass factors a Gram matrix of condition at most 1.02 and
   leaves ``Q`` orthonormal to rounding, and since ``W = Q_1 L^T`` with
   ``L`` triangular, each column's residual against the columns before
   it is at least 0.995 of its pivot, so the pivot test means what the
   QR diagonal means. Blocks of the ledger graphs' Krylov spaces drift
   by less than 1e-11; the guard fires once ``cond(W)`` nears ``1e7``,
   where the Gram matrix no longer resolves a column's pivot;
4. when the Krylov space is exhausted (``rank(A) < c``, e.g. ``n <
   k' (q + 1)``), a new block has columns that already lie in the span
   of the basis: a column whose Householder QR diagonal falls to
   ``1e-8`` of its norm before projection is replaced by a Gaussian
   column from the same generator and the block is projected again, so
   ``Q`` stays orthonormal;
5. Rayleigh--Ritz from the stored products: eigendecompose
   ``M = Q^T A A^T Q = (A^T Q)^T (A^T Q)``;
6. read off the top-``k'`` triplets: ``U = Q W``, ``sigma`` the square
   roots of the eigenvalues, ``V = (A^T Q) W / sigma``, so ``A^T U = V
   diag(sigma)`` without another product with ``A^T``.

``bksvd`` works in its input's dtype. A float32 matrix keeps the start
block, the basis, ``A^T Q`` and the returned triplets in float32; any
other input (float64, integer, boolean) runs in float64, so a float64
caller gets the results it always got. :func:`repro.linalg.randomized_svd`
follows the same rule. Only the ``c x c`` Rayleigh--Ritz eigenproblem
(``512 x 512`` at the defaults) is float64 for every input: ``M`` is
formed in the working dtype and cast before ``eigh``. Two thresholds
meet the dtype:

* the lost-column threshold ``1e-8`` of steps 3 and 4 is float64's. It
  scales with ``sqrt(eps_mach)``, to ``1e-8 sqrt(eps32 / eps64)``,
  about ``2.3e-4``, in float32. Unscaled it lies below float32's
  resolution: columns already in the span pass as new, and Algorithm 1
  on the 9-node Figure-1 graph (``k' = 4``) came out wrong by 0.17;
* the drift guard ``||Q_1^T Q_1 - I||_F > 0.01`` does not scale, since
  step 3's argument needs that bound itself. In float32 ``eps_mach
  cond(W)^2`` reaches it from ``cond(W)`` of about 300, not ``1e7``, so
  blocks that ill-conditioned go to Householder QR. No block of the
  ledger fit graphs (seeds 0--2, ``k' = 64``) took that path.

The dense algebra runs on NumPy's BLAS and LAPACK only, never
``scipy.linalg``: the NumPy and SciPy wheels link separate OpenBLAS
builds (``scipy_openblas64`` and ``scipy_openblas32``), each with its own
thread pool, and on two cores the pools compete. On the ``fit_sparse``
ledger graph (2 vCPUs, median of 8 interleaved rounds, default threads)
one ``bksvd`` call took 611 ms with Householder QR, 669 ms with
Cholesky-QR2 through ``scipy.linalg.solve_triangular`` and 346 ms with
``np.linalg.cholesky`` and a GEMM against the inverted ``k' x k'``
factor; with ``OPENBLAS_NUM_THREADS=1``, 681, 526 and 477 ms.

The memory guard ``max_krylov_cols`` never reduces the depth ``q``
below 1, so the basis holds ``2 k'`` columns, more than the guard, when
``k' > max_krylov_cols / 2``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError, check_integers
from ..rng import ensure_rng

__all__ = ["bksvd", "default_krylov_iterations"]

#: A column whose QR diagonal (or first-pass Cholesky pivot) is at most
#: this fraction of its norm before projection lies in the span of the
#: basis so far (to rounding). This is the float64 value; it scales with
#: the square root of the working dtype's machine epsilon
#: (:func:`_lost_column`).
_LOST_COLUMN = 1e-8

#: Cholesky-QR2 hands a block to Householder QR when its first pass
#: leaves ``||Q_1^T Q_1 - I||_F`` above this (see the module docstring).
_FIRST_PASS_DRIFT = 1e-2


def _working_dtype(matrix) -> np.dtype:
    """float32 for a float32 ``matrix``; float64 for any other dtype."""
    return np.dtype(np.float32 if matrix.dtype == np.float32
                    else np.float64)


def _lost_column(dtype: np.dtype) -> float:
    """:data:`_LOST_COLUMN` scaled to ``dtype``: ``1e-8`` in float64,
    about ``2.3e-4`` in float32."""
    return _LOST_COLUMN * math.sqrt(np.finfo(dtype).eps
                                    / np.finfo(np.float64).eps)


def default_krylov_iterations(num_rows: int, eps: float) -> int:
    """The paper-suggested iteration count ``O(log n / sqrt(eps))``, clamped.

    The theoretical constant is small in practice; we clamp to [4, 15] so
    the routine stays fast on large graphs while matching the guarantee
    regime used in the paper's experiments (eps in [0.1, 0.9]).
    """
    if not eps > 0:                        # also refuses NaN
        raise ParameterError(f"eps must be positive, got {eps!r}")
    raw = math.ceil(math.log(max(num_rows, 2)) / math.sqrt(eps) / 2.0)
    return int(min(15, max(4, raw)))


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the SVD deterministic: largest-|entry| of each u-column positive."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def _rayleigh_ritz(basis: np.ndarray, at_basis: np.ndarray, rank: int,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``rank`` singular triplets of ``A`` restricted to ``basis``.

    ``basis`` is an orthonormal ``Q`` and ``at_basis`` is ``A^T Q``;
    ``M = Q^T A A^T Q`` is their Gram matrix, and ``V`` comes from the
    stored ``A^T Q`` as well (``sigma <= 1e-12`` columns are not scaled).
    ``M`` is formed in the arrays' dtype and eigendecomposed in float64;
    the triplets come back in the arrays' dtype.
    """
    dtype = basis.dtype
    eigvals, eigvecs = np.linalg.eigh(
        (at_basis.T @ at_basis).astype(np.float64, copy=False))
    order = np.argsort(eigvals)[::-1][:rank]
    top = eigvecs[:, order].astype(dtype, copy=False)
    sigma = np.sqrt(np.maximum(eigvals[order], 0.0))
    safe = np.where(sigma > 1e-12, sigma, 1.0).astype(dtype, copy=False)
    u, v = _fix_signs(basis @ top, (at_basis @ top) / safe)
    return u, sigma.astype(dtype, copy=False), v


def _cholesky_qr2(block: np.ndarray, norms: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of ``block`` by Cholesky-QR2, or ``None``.

    ``None`` hands the block to Householder QR: when the Gram matrix is
    not numerically positive definite, when a first-pass pivot is a lost
    column, or when the first pass leaves ``Q_1`` further than
    ``_FIRST_PASS_DRIFT`` from orthonormal.
    """
    try:
        factor = np.linalg.cholesky(block.T @ block)
    except np.linalg.LinAlgError:
        return None
    if (np.diag(factor) <= _lost_column(block.dtype) * norms).any():
        return None
    q = block @ np.linalg.inv(factor).T
    gram = q.T @ q
    # negated so that a NaN drift also falls back
    if not np.linalg.norm(gram - np.eye(len(gram))) <= _FIRST_PASS_DRIFT:
        return None
    return q @ np.linalg.inv(np.linalg.cholesky(gram)).T


def _orthonormal_extension(block: np.ndarray, basis: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Orthonormal columns spanning ``block`` modulo ``span(basis)``.

    Block classical Gram--Schmidt twice, then Cholesky-QR2, or
    Householder QR where Cholesky-QR2 declines the block. Columns that
    lie in the span of ``basis`` and the columns before them are
    replaced by Gaussian columns, so the result always has full width.
    """
    norms = np.linalg.norm(block, axis=0)
    while True:
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
        q = _cholesky_qr2(block, norms)
        if q is not None:
            return q
        q, r = np.linalg.qr(block)
        lost = np.abs(np.diag(r)) <= _lost_column(block.dtype) * norms
        if not lost.any():
            return q
        block[:, lost] = rng.standard_normal((block.shape[0], lost.sum()))
        norms[lost] = np.linalg.norm(block[:, lost], axis=0)


def bksvd(matrix, rank: int, *, eps: float = 0.2,
          num_iters: int | None = None, max_krylov_cols: int = 512,
          seed=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate top-``rank`` SVD of a (sparse) matrix.

    Parameters
    ----------
    matrix:
        ``(n, d)`` array or scipy sparse matrix; only matrix-block
        products with it and its transpose are used, so sparse inputs
        are never densified.
    rank:
        Number of singular triplets to return.
    eps:
        Relative spectral-norm error target; sets the default iteration
        count via :func:`default_krylov_iterations`.
    num_iters:
        Explicit Krylov depth ``q >= 0`` (overrides the ``eps``-derived
        default).
    max_krylov_cols:
        Memory guard: the Krylov basis has ``rank * (q + 1)`` columns;
        ``q`` is reduced (to no less than 1) if the basis would exceed
        this many columns.

    Returns
    -------
    (U, sigma, V):
        ``U`` is ``(n, rank)`` with orthonormal columns, ``sigma``
        descending ``(rank,)``, ``V`` is ``(d, rank)``;
        ``U @ diag(sigma) @ V.T ~= matrix`` and
        ``matrix.T @ U == V @ diag(sigma)`` up to rounding.
    """
    n, d = matrix.shape
    check_integers(rank=rank, max_krylov_cols=max_krylov_cols)
    if num_iters is not None:
        check_integers(num_iters=num_iters)
    if rank < 1 or rank > min(n, d):
        raise ParameterError(f"rank={rank} out of range for shape {(n, d)}")
    if num_iters is not None and num_iters < 0:
        raise ParameterError(f"num_iters must be >= 0, got {num_iters!r}")
    rng = ensure_rng(seed)
    q = num_iters if num_iters is not None else default_krylov_iterations(n, eps)
    if rank * (q + 1) > max_krylov_cols:
        q = max(1, max_krylov_cols // rank - 1)

    dtype = _working_dtype(matrix)
    cols = min(rank * (q + 1), n, d)
    basis = np.empty((n, cols), dtype)
    at_basis = np.empty((d, cols), dtype)
    block = matrix @ rng.standard_normal((d, rank)).astype(dtype, copy=False)
    for start in range(0, cols, rank):
        stop = min(start + rank, cols)
        basis[:, start:stop] = _orthonormal_extension(
            np.asarray(block)[:, :stop - start], basis[:, :start], rng)
        at_basis[:, start:stop] = matrix.T @ basis[:, start:stop]
        if stop < cols:
            block = matrix @ at_basis[:, start:stop]
    return _rayleigh_ritz(basis, at_basis, rank)
