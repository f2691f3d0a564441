"""Simple randomized SVD (Halko, Martinsson & Tropp 2011).

Used as the cheaper alternative to :func:`repro.linalg.bksvd.bksvd` in the
SVD-initialization ablation, and as the factorization backend of several
baseline methods (ProNE, NetMF, NetSMF, NetHiex, GA).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, check_integers
from ..rng import ensure_rng
from .bksvd import _rayleigh_ritz, _working_dtype

__all__ = ["randomized_svd"]


def randomized_svd(matrix, rank: int, *, oversample: int = 10,
                   power_iters: int = 4, seed=None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate top-``rank`` SVD via the range-finder + power scheme.

    Cheaper than block-Krylov (one basis of ``rank + oversample`` columns)
    but with a weaker error guarantee; see Halko et al. for the analysis.
    ``oversample`` and ``power_iters`` must be non-negative. Like
    :func:`repro.linalg.bksvd`, it works in float32 for a float32
    ``matrix`` and in float64 for any other.
    """
    n, d = matrix.shape
    check_integers(rank=rank, oversample=oversample, power_iters=power_iters)
    if rank < 1 or rank > min(n, d):
        raise ParameterError(f"rank={rank} out of range for shape {(n, d)}")
    if oversample < 0:
        raise ParameterError(f"oversample must be >= 0, got {oversample!r}")
    if power_iters < 0:
        raise ParameterError(
            f"power_iters must be >= 0, got {power_iters!r}")
    rng = ensure_rng(seed)
    cols = min(rank + oversample, min(n, d))
    basis = matrix @ rng.standard_normal((d, cols)).astype(
        _working_dtype(matrix), copy=False)
    basis, _ = np.linalg.qr(basis)
    for _ in range(power_iters):
        basis = matrix @ (matrix.T @ basis)
        basis, _ = np.linalg.qr(basis)
    return _rayleigh_ritz(basis, np.asarray(matrix.T @ basis), rank)
