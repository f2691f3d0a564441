"""Algorithm 1 of the paper: ApproxPPR.

Factorizes the truncated PPR matrix ``Pi' = sum_{i=1..ell1}
alpha (1-alpha)^i P^i`` into forward embeddings ``X`` and backward
embeddings ``Y`` (``X @ Y.T ~= Pi'``) without ever materializing an
``n x n`` matrix:

1. ``U, Sigma, V = BKSVD(A, k', eps)``            (randomized SVD of A)
2. ``X_1 = D^-1 U sqrt(Sigma)``, ``Y = V sqrt(Sigma)``
   so that ``X_1 @ Y.T ~= D^-1 A = P``
3. ``X_i = (1 - alpha) P X_{i-1} + X_1`` for ``i = 2..ell1``
4. ``X = alpha (1 - alpha) X_ell1``

Theorem 1 bounds the entrywise error by
``(1+eps) sigma_{k'+1} (1-alpha)(1-(1-alpha)^ell1) + (1-alpha)^(ell1+1)``.

Both stages run in one process on the whole graph: the SVD multiplies
the CSR adjacency matrix by dense blocks, and each power iteration is
one CSR × dense product updated in place.

Precision: Algorithm 1 runs in float32. The randomized SVDs get a
float32 ``A`` and work in its dtype (see :mod:`repro.linalg.bksvd`),
``X_1``, ``Y`` and ``V Sigma^-1/2`` are float32, and the power
iterations multiply by a float32 ``P``, so :class:`PPRFactorState` is
float32. Theorem 1 is the argument: at the paper's defaults its
truncation term alone, ``(1-alpha)^(ell1+1) ~= 0.033``, is about
``10^5`` times float32's unit roundoff (``6e-8``), and its SVD term is
larger still, while ``ell1`` products with a substochastic ``P`` add
relative rounding of order ``ell1 eps_32``. One CSR × 64-column product
costs about half as much in float32 as in float64. ``svd="exact"``
stays the float64 oracle: its SVD and its propagation run in float64.
Everything downstream is float64: :class:`repro.NRP` and
:class:`repro.ApproxPPREmbedder` cast ``X`` and ``Y`` once per fit, and
:class:`repro.streaming.IncrementalPPR` casts the state once when it
adopts it, so the reweighting, the objective and every public
embedding see float64 only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import ParameterError, check_integers
from ..graph import Graph
from ..linalg import bksvd, randomized_svd
from ..rng import ensure_rng

__all__ = ["ApproxPPRConfig", "PPRFactorState", "approx_ppr_embeddings",
           "approx_ppr_state", "theorem1_bound"]


@dataclass(frozen=True)
class ApproxPPRConfig:
    """Inputs of Algorithm 1 (names follow the paper).

    ``k_prime`` is the per-side dimensionality ``k' = k/2``; the paper's
    defaults are ``alpha=0.15, ell1=20, eps=0.2``.
    """

    k_prime: int
    alpha: float = 0.15
    ell1: int = 20
    eps: float = 0.2
    svd: str = "bksvd"           # "bksvd" | "rsvd" | "exact"
    seed: int | None = 0

    def validate(self) -> None:
        check_integers(k_prime=self.k_prime, ell1=self.ell1)
        if self.k_prime < 1:
            raise ParameterError("k_prime must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(
                f"alpha must be in the open interval (0, 1), "
                f"got {self.alpha!r}")
        if self.ell1 < 1:
            raise ParameterError("ell1 must be >= 1")
        if not self.eps > 0:               # also refuses NaN
            raise ParameterError(f"eps must be positive, got {self.eps!r}")
        if self.svd not in ("bksvd", "rsvd", "exact"):
            raise ParameterError(f"unknown svd backend {self.svd!r}")


def _factorize_adjacency(graph: Graph, config: ApproxPPRConfig,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U, sigma, V`` of ``A``: float32 from the randomized backends,
    float64 from the exact oracle (see the module docstring)."""
    if config.svd == "exact":
        dense = graph.adjacency().toarray()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        return u[:, :config.k_prime], s[:config.k_prime], vt[:config.k_prime].T
    adjacency = graph.adjacency(np.float32)
    rng = ensure_rng(config.seed)
    if config.svd == "bksvd":
        return bksvd(adjacency, config.k_prime, eps=config.eps, seed=rng)
    return randomized_svd(adjacency, config.k_prime, seed=rng)


def _power_iterations(p, x1: np.ndarray,
                      config: ApproxPPRConfig) -> np.ndarray:
    """Line 3 of Algorithm 1: ``X_i = (1 - alpha) P X_{i-1} + X_1``.

    The scaling and the addition run in place on the fresh product, the
    same IEEE operations as ``decay * (p @ x) + x1`` with one allocation
    per iteration instead of three. ``x1`` is never written.
    """
    decay = 1.0 - config.alpha
    x = x1.copy()
    for _ in range(2, config.ell1 + 1):
        x = p @ x
        x *= decay
        x += x1
    return x


@dataclass(frozen=True)
class PPRFactorState:
    """Internal sketches of Algorithm 1, retained for incremental repair.

    The public result ``(X, Y)`` of :func:`approx_ppr_embeddings` is a
    lossy view of this state: ``X = alpha (1 - alpha) x_iter`` and
    ``Y = y``. :class:`repro.streaming.IncrementalPPR` instead needs the
    un-scaled iterate and the basis that maps adjacency rows back into
    sketch space:

    ``x1``
        The first iterate ``X_1 = D^-1 U sqrt(Sigma)``; the additive
        term of every power iteration.
    ``x_iter``
        ``X_ell1`` before the final ``alpha (1 - alpha)`` scaling.
    ``y``
        The backward factor ``V sqrt(Sigma)`` (the serving database
        side; fixed between basis refreshes).
    ``v_scaled``
        ``V / sqrt(Sigma)`` (columns with ``sigma = 0`` zeroed). Since
        ``U sqrt(Sigma) = A V Sigma^-1/2``, a changed adjacency row
        maps to a changed ``x1`` row by ``delta_A[v] @ v_scaled`` —
        the identity that makes O(degree) local repair possible.
    """

    x1: np.ndarray
    x_iter: np.ndarray
    y: np.ndarray
    v_scaled: np.ndarray


def approx_ppr_state(graph: Graph, config: ApproxPPRConfig,
                     ) -> PPRFactorState:
    """Run Algorithm 1 keeping the internal sketches (see the dataclass)."""
    config.validate()
    if config.k_prime > graph.num_nodes:
        raise ParameterError("k_prime cannot exceed the number of nodes")
    with obs.trace("approx_ppr.svd", backend=config.svd,
                   k_prime=config.k_prime):
        u, sigma, v = _factorize_adjacency(graph, config)
    dtype = u.dtype
    sqrt_sigma = np.sqrt(np.maximum(sigma, 0.0))
    d_inv = graph.out_degree_inverse().astype(dtype, copy=False)
    x1 = d_inv[:, None] * u * sqrt_sigma[None, :]
    y = v * sqrt_sigma[None, :]
    inv_sqrt = np.zeros_like(sqrt_sigma)
    np.divide(1.0, sqrt_sigma, out=inv_sqrt, where=sqrt_sigma > 0)
    v_scaled = v * inv_sqrt[None, :]

    p = graph.transition_matrix(dtype)
    with obs.trace("approx_ppr.propagation", ell1=config.ell1):
        x_iter = _power_iterations(p, x1, config)
    return PPRFactorState(x1=x1, x_iter=x_iter, y=y, v_scaled=v_scaled)


def approx_ppr_embeddings(graph: Graph, config: ApproxPPRConfig,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Run Algorithm 1; returns ``(X, Y)`` with ``X @ Y.T ~= Pi'``, in
    the factor state's dtype (float32 unless ``svd="exact"``)."""
    state = approx_ppr_state(graph, config)
    x = state.x_iter * (config.alpha * (1.0 - config.alpha))
    return x, state.y


def theorem1_bound(sigma_next: float, alpha: float, ell1: int,
                   eps: float) -> float:
    """The entrywise error bound of Theorem 1.

    ``sigma_next`` is the ``(k'+1)``-th largest singular value of ``A``.
    """
    decay = 1.0 - alpha
    return ((1.0 + eps) * sigma_next * decay * (1.0 - decay ** ell1)
            + decay ** (ell1 + 1))
