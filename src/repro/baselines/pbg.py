"""PBG / PyTorch-BigGraph (Lerer et al., SysML'19), single-partition form.

PBG's modeling core is a dot-product edge score trained with in-batch
negative sampling; its contribution is the distributed partitioning,
which is irrelevant at laptop scale. We therefore train the same edge
objective in one partition.
Like VERSE it emits one vector per node, hence ``lp_scoring = "auto"``.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..neural import SGNS, unigram_noise
from ..rng import spawn_rngs
from .base import BaselineEmbedder, register

__all__ = ["PBG"]


@register
class PBG(BaselineEmbedder):
    """Dot-product edge model with negative sampling (one partition)."""

    name = "PBG"
    lp_scoring = "auto"

    def __init__(self, dim: int = 128, *, epochs: int = 5,
                 num_negatives: int = 10, lr: float = 0.01,
                 seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.epochs = epochs
        self.num_negatives = num_negatives
        self.lr = lr

    def fit(self, graph: Graph) -> "PBG":
        train_rng, init_rng = spawn_rngs(self.seed, 2)
        src, dst = graph.arcs()
        model = SGNS(graph.num_nodes, self.dim, shared=True, seed=init_rng)
        noise = unigram_noise(np.ones(graph.num_nodes), power=1.0)
        model.train(src, dst, noise=noise, epochs=self.epochs,
                    num_negatives=self.num_negatives, lr=self.lr,
                    seed=train_rng)
        self.embedding_ = model.input_vectors
        return self
