"""PPR by power iteration (the exact reference the paper's Table 1 uses).

The paper defines PPR via walk termination (Section 3.1): a walk from
``u`` stops at the current node with probability ``alpha`` and otherwise
moves to a uniform out-neighbor, giving

    Pi = sum_{i>=0} alpha (1 - alpha)^i P^i            (Eq. 1)

equivalently the fixed point ``pi_u = alpha e_u + (1 - alpha) pi_u P``.
Dangling nodes (no out-edges) terminate the walk, making ``P``
substochastic; rows still sum to at most 1.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ParameterError
from ..graph import Graph

__all__ = ["ppr_row", "ppr_rows", "ppr_matrix_dense", "truncated_ppr_matrix"]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must be in (0, 1)")


def ppr_row(graph: Graph, source: int, alpha: float = 0.15, *,
            tol: float = 1e-12, max_iters: int = 10_000) -> np.ndarray:
    """Exact single-source PPR vector ``pi(source, .)`` (length n)."""
    return ppr_rows(graph, np.asarray([source]), alpha,
                    tol=tol, max_iters=max_iters)[0]


def ppr_rows(graph: Graph, sources: np.ndarray, alpha: float = 0.15, *,
             tol: float = 1e-12, max_iters: int = 10_000) -> np.ndarray:
    """PPR rows for several sources at once, shape ``(len(sources), n)``.

    Iterates the series of Eq. (1) term by term; the residual mass after
    ``t`` terms is ``(1 - alpha)^(t+1)`` so convergence to ``tol`` needs
    ``log(tol) / log(1 - alpha)`` iterations. A source outside
    ``[0, n)`` or ``max_iters < 1`` raises :class:`ParameterError`.
    """
    _check_alpha(alpha)
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    sources = np.asarray(sources, dtype=np.int64)
    n = graph.num_nodes
    if len(sources) and (sources.min() < 0 or sources.max() >= n):
        raise ParameterError(f"source out of range [0, {n})")
    p = graph.transition_matrix()
    dangling = np.flatnonzero(graph.out_degrees == 0)
    walk = np.zeros((len(sources), n))
    walk[np.arange(len(sources)), sources] = 1.0
    result = np.zeros_like(walk)
    for _ in range(max_iters):
        result += alpha * walk
        if len(dangling):
            # a walk at a dangling node terminates there with certainty
            result[:, dangling] += (1.0 - alpha) * walk[:, dangling]
        walk = (1.0 - alpha) * (walk @ p)   # P has zero rows at dangling
        if walk.sum() <= tol * len(sources):
            break
    return result


def ppr_matrix_dense(graph: Graph, alpha: float = 0.15, *,
                     tol: float = 1e-12, max_iters: int = 10_000) -> np.ndarray:
    """The full dense PPR matrix ``Pi`` (small graphs only: O(n^2) memory)."""
    return ppr_rows(graph, np.arange(graph.num_nodes), alpha,
                    tol=tol, max_iters=max_iters)


def truncated_ppr_matrix(graph: Graph, alpha: float = 0.15,
                         num_terms: int = 20) -> np.ndarray:
    """``Pi' = sum_{i=1..ell1} alpha (1-alpha)^i P^i`` of Eq. (3), densely.

    This is the exact target that ApproxPPR (Algorithm 1) factorizes; the
    tests compare ``X @ Y.T`` against it within the Theorem 1 bound.
    """
    _check_alpha(alpha)
    if num_terms < 1:
        raise ParameterError("num_terms must be >= 1")
    p = graph.transition_matrix()
    n = graph.num_nodes
    term = np.eye(n)
    acc = np.zeros((n, n))
    for i in range(1, num_terms + 1):
        term = term @ p  # P^i applied incrementally
        acc += alpha * (1.0 - alpha) ** i * term
    return acc
