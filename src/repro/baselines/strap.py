"""STRAP: scalable transpose-proximity embedding (Yin & Wei, KDD'19).

STRAP approximates the *transpose proximity* ``M = Pi + Pi^T`` (PPR of
the graph plus PPR of the reversed graph), keeps only entries above
``delta/2``, and factorizes with sparse SVD. The forward/backward
halves ``U sqrt(S), V sqrt(S)`` make it direction-aware, which is why
the NRP paper treats it as the strongest PPR competitor.

Substitution note: the original builds ``Pi`` one column at a time with
backward push in C++. This module builds a thresholded ``Pi`` by pruned
sparse power iteration instead (:func:`pruned_ppr_matrix`): term ``i``
of the series ``sum_i alpha (1 - alpha)^i P^i`` is formed in CSR from
term ``i - 1``, and its entries below ``alpha * delta / 2`` are dropped
before it propagates; the series stops before the first term whose
weight ``(1 - alpha)^i`` is below ``delta / 2`` (or after ``max_terms``
terms); entries of the sum below ``delta / 2`` are dropped. Each step
only drops nonnegative mass, so every kept entry is at most the exact
``Pi`` entry.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ParameterError
from ..graph import Graph
from ..linalg import sparse_svd
from .base import BaselineEmbedder, register

__all__ = ["STRAP", "pruned_ppr_matrix"]


def pruned_ppr_matrix(graph: Graph, alpha: float, *, delta: float,
                      max_terms: int = 100) -> sp.csr_matrix:
    """Sparse approximation of ``Pi`` keeping entries ``>= delta / 2``.

    Accumulates ``alpha (1-alpha)^i P^i`` and prunes small entries of the
    *iterate* each term (see the module's substitution note).
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must be in (0, 1)")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    p = graph.transition_matrix().tocsr()
    n = graph.num_nodes
    term = sp.identity(n, format="csr") * alpha
    terms = [term.copy()]
    threshold = delta / 2.0
    for i in range(1, max_terms + 1):
        term = ((1.0 - alpha) * term) @ p
        term.data[term.data < threshold * alpha] = 0.0
        term.eliminate_zeros()
        if term.nnz == 0 or (1.0 - alpha) ** i < threshold:
            break
        terms.append(term.copy())
    # one balanced reduction instead of n_terms incremental additions
    while len(terms) > 1:
        terms = [terms[j] + terms[j + 1] if j + 1 < len(terms) else terms[j]
                 for j in range(0, len(terms), 2)]
    acc = terms[0].tocsr()
    acc.data[acc.data < threshold] = 0.0
    acc.eliminate_zeros()
    return acc


@register
class STRAP(BaselineEmbedder):
    """Transpose-proximity PPR factorization with forward/backward halves."""

    name = "STRAP"
    directional = True
    lp_scoring = "inner"

    def __init__(self, dim: int = 128, *, alpha: float = 0.15,
                 delta: float = 1e-5, seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.alpha = alpha
        self.delta = delta

    def fit(self, graph: Graph) -> "STRAP":
        pi = pruned_ppr_matrix(graph, self.alpha, delta=self.delta)
        if graph.directed:
            pi_t = pruned_ppr_matrix(graph.transpose(), self.alpha,
                                     delta=self.delta)
            proximity = pi + pi_t.T
        else:
            proximity = pi + pi.T
        k_prime = self.dim // 2
        u, s, v = sparse_svd(proximity, min(k_prime, graph.num_nodes - 2),
                             seed=self.seed or 0)
        root = np.sqrt(s)[None, :]
        self.forward_ = u * root
        self.backward_ = v * root
        return self
