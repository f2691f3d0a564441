"""NetHiex (Ma et al., KDD'18), simplified: taxonomy-aware embedding.

NetHiex couples each node with a latent hierarchical taxonomy learned
by EM. We reproduce the *representation* — a node vector composed with
its ancestors' category vectors — while learning the taxonomy by
recursive k-means over a spectral bootstrap instead of nonparametric EM:

    Z_v = base_v + gamma * centroid(level1(v)) + gamma^2 * centroid(level2(v))

so nodes in the same latent category share mass, which is what gives
NetHiex its classification strength in the paper.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..linalg import randomized_svd
from ..ml.kmeans import kmeans
from ..rng import spawn_rngs
from .base import BaselineEmbedder, register

__all__ = ["NetHiex"]


@register
class NetHiex(BaselineEmbedder):
    """Two-level latent taxonomy over a spectral bootstrap; undirected."""

    name = "NetHiex"
    lp_scoring = "inner"
    supports_directed = False

    def __init__(self, dim: int = 128, *, branches: int = 8,
                 gamma: float = 0.5, seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.branches = branches
        self.gamma = gamma
        self.taxonomy_: tuple[np.ndarray, np.ndarray] | None = None

    def fit(self, graph: Graph) -> "NetHiex":
        und = graph.as_undirected()
        svd_rng, km1_rng, km2_rng = spawn_rngs(self.seed, 3)
        u, s, _ = randomized_svd(und.adjacency(),
                                 min(self.dim, und.num_nodes - 1),
                                 seed=svd_rng)
        base = u * np.sqrt(s)[None, :]
        k1 = min(self.branches, und.num_nodes)
        level1, cent1 = kmeans(base, k1, seed=km1_rng)
        level2 = np.zeros(und.num_nodes, dtype=np.int64)
        cent2 = np.zeros((k1 * self.branches, base.shape[1]))
        for c in range(k1):
            members = np.flatnonzero(level1 == c)
            if len(members) == 0:
                continue
            k2 = min(self.branches, len(members))
            sub_assign, sub_cent = kmeans(base[members], k2, seed=km2_rng)
            level2[members] = c * self.branches + sub_assign
            cent2[c * self.branches:c * self.branches + k2] = sub_cent
        self.taxonomy_ = (level1, level2)
        self.embedding_ = (base + self.gamma * cent1[level1]
                           + self.gamma ** 2 * cent2[level2])
        return self
