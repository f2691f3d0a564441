"""DNGR (Cao et al., AAAI'16): random surfing + PPMI + autoencoder.

Three stages, all reproduced with our substrates:

1. random-surfing matrix ``R = sum_t beta^t P^t`` (kept sparse by
   pruning tiny entries, same trick as STRAP's PPR matrix);
2. PPMI transform of ``R``;
3. a stacked autoencoder compresses each node's PPMI row to ``dim``
   (the original uses stacked *denoising* autoencoders; this one has no
   input noise and fewer layers).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ParameterError
from ..graph import Graph
from ..linalg import ppmi_sparse
from ..neural import Autoencoder
from ..rng import spawn_rngs
from .base import BaselineEmbedder, register

__all__ = ["DNGR"]


@register
class DNGR(BaselineEmbedder):
    """Random surfing + PPMI + MLP autoencoder."""

    name = "DNGR"
    lp_scoring = "edge_features"

    def __init__(self, dim: int = 128, *, beta: float = 0.98, steps: int = 10,
                 prune: float = 1e-4, hidden: int = 256, epochs: int = 20,
                 max_nodes: int = 50_000, seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        if not 0.0 < beta < 1.0:
            raise ParameterError("beta must be in (0, 1)")
        self.beta = beta
        self.steps = steps
        self.prune = prune
        self.hidden = hidden
        self.epochs = epochs
        self.max_nodes = max_nodes

    def _surfing_matrix(self, graph: Graph) -> sp.csr_matrix:
        p = graph.transition_matrix()
        n = graph.num_nodes
        term = sp.identity(n, format="csr")
        acc = sp.csr_matrix((n, n))
        for _ in range(self.steps):
            term = (self.beta * term) @ p
            term.data[term.data < self.prune] = 0.0
            term.eliminate_zeros()
            acc = acc + term
        return acc.tocsr()

    def fit(self, graph: Graph) -> "DNGR":
        if graph.num_nodes > self.max_nodes:
            raise ParameterError(
                f"DNGR's autoencoder input is n-dimensional; refusing "
                f"beyond {self.max_nodes} nodes")
        ae_rng, fit_rng = spawn_rngs(self.seed, 2)
        ppmi = ppmi_sparse(self._surfing_matrix(graph))
        auto = Autoencoder(graph.num_nodes, (self.hidden, self.dim),
                           seed=ae_rng)
        dense_rows = np.asarray(ppmi.todense())
        # rows are scaled to unit max so tanh units stay in range
        peak = dense_rows.max()
        if peak > 0:
            dense_rows = dense_rows / peak
        auto.fit(dense_rows, epochs=self.epochs, seed=fit_rng)
        self.embedding_ = auto.encode(dense_rows)
        return self
