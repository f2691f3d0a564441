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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import ParameterError
from ..graph import Graph
from ..linalg import BlockSparseOperator, bksvd, randomized_svd
from ..parallel import parallel_map, payload
from ..ppr.chunks import iter_chunks
from ..rng import ensure_rng

__all__ = ["ApproxPPRConfig", "PPRFactorState", "approx_ppr_embeddings",
           "approx_ppr_state", "theorem1_bound"]


@dataclass(frozen=True)
class ApproxPPRConfig:
    """Inputs of Algorithm 1 (names follow the paper).

    ``k_prime`` is the per-side dimensionality ``k' = k/2``; the paper's
    defaults are ``alpha=0.15, ell1=20, eps=0.2``.

    ``chunk_size`` / ``workers`` select the chunked engine: every
    matrix–block product (SVD sketching and the ``ell1`` power
    iterations) is evaluated over row chunks, optionally across worker
    processes. The chunked engine is bit-identical to the dense-path
    arithmetic for the sparse products and deterministic given ``seed``
    regardless of ``workers``. The power iterations always run over
    row chunks (``chunk_size=None`` is the default grid); by default
    the SVD sketch multiplies the whole adjacency matrix at once.
    """

    k_prime: int
    alpha: float = 0.15
    ell1: int = 20
    eps: float = 0.2
    svd: str = "bksvd"           # "bksvd" | "rsvd" | "exact"
    seed: int | None = 0
    chunk_size: int | None = None
    workers: int = 1

    @property
    def chunked(self) -> bool:
        """Whether the chunked engine is selected."""
        return self.chunk_size is not None or self.workers != 1

    def validate(self) -> None:
        if self.k_prime < 1:
            raise ParameterError("k_prime must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(
                f"alpha must be in the open interval (0, 1), "
                f"got {self.alpha!r}")
        if self.ell1 < 1:
            raise ParameterError("ell1 must be >= 1")
        if self.eps <= 0:
            raise ParameterError("eps must be positive")
        if self.svd not in ("bksvd", "rsvd", "exact"):
            raise ParameterError(f"unknown svd backend {self.svd!r}")
        if self.chunk_size is not None and (
                int(self.chunk_size) != self.chunk_size or self.chunk_size < 1):
            raise ParameterError(
                f"chunk_size must be a positive integer or None, "
                f"got {self.chunk_size!r}")
        if int(self.workers) != self.workers or self.workers < 1:
            raise ParameterError(
                f"workers must be a positive integer, got {self.workers!r}")
        if self.chunked and self.svd == "exact":
            raise ParameterError(
                "svd='exact' densifies the full adjacency matrix, which "
                "defeats the chunked engine; use svd='bksvd' or 'rsvd' "
                "with chunk_size/workers")


def _factorize_adjacency(graph: Graph, config: ApproxPPRConfig,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    adjacency = graph.adjacency()
    if config.chunked:
        # Same arithmetic, evaluated one row block at a time (and in
        # parallel when workers > 1): bksvd/rsvd only form matrix-block
        # products, so the operator swap is invisible to them.
        adjacency = BlockSparseOperator(adjacency,
                                        chunk_size=config.chunk_size,
                                        workers=config.workers)
    rng = ensure_rng(config.seed)
    if config.svd == "bksvd":
        return bksvd(adjacency, config.k_prime, eps=config.eps, seed=rng)
    if config.svd == "rsvd":
        return randomized_svd(adjacency, config.k_prime, seed=rng)
    dense = adjacency.toarray()
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    return u[:, :config.k_prime], s[:config.k_prime], vt[:config.k_prime].T


def _power_chunk(index: int) -> np.ndarray:
    p_rows, x1_rows, x, decay = payload()
    return decay * (p_rows[index] @ x) + x1_rows[index]


def _chunked_power_iterations(p, x1: np.ndarray,
                              config: ApproxPPRConfig) -> np.ndarray:
    """Lines 3 of Algorithm 1 over row chunks of ``P``.

    Each output row of ``(1 - alpha) P X + X_1`` depends on the full
    current ``X`` but is computed independently, so the row-chunked
    product is bit-identical to the one-shot product for any grid and
    worker count.
    """
    bounds = list(iter_chunks(x1.shape[0], config.chunk_size))
    # every iteration multiplies the same row blocks: slice them once
    p_rows = [p[start:stop] for start, stop in bounds]
    x1_rows = [x1[start:stop] for start, stop in bounds]
    decay = 1.0 - config.alpha
    x = x1.copy()
    for _ in range(2, config.ell1 + 1):
        blocks = parallel_map(_power_chunk, range(len(bounds)),
                              workers=config.workers,
                              payload=(p_rows, x1_rows, x, decay))
        x = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
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
    sqrt_sigma = np.sqrt(np.maximum(sigma, 0.0))
    d_inv = graph.out_degree_inverse()
    x1 = d_inv[:, None] * u * sqrt_sigma[None, :]
    y = v * sqrt_sigma[None, :]
    inv_sqrt = np.zeros_like(sqrt_sigma)
    np.divide(1.0, sqrt_sigma, out=inv_sqrt, where=sqrt_sigma > 0)
    v_scaled = v * inv_sqrt[None, :]

    p = graph.transition_matrix()
    with obs.trace("approx_ppr.propagation", ell1=config.ell1,
                   chunked=config.chunked):
        x_iter = _chunked_power_iterations(p, x1, config)
    return PPRFactorState(x1=x1, x_iter=x_iter, y=y, v_scaled=v_scaled)


def approx_ppr_embeddings(graph: Graph, config: ApproxPPRConfig,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Run Algorithm 1; returns ``(X, Y)`` with ``X @ Y.T ~= Pi'``."""
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
