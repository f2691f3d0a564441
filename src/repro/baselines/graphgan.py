"""GraphGAN (Wang et al., AAAI'18), simplified adversarial embedding.

Generator ``G`` and discriminator ``D`` each hold an embedding table.
``D`` learns to score true edges above generated pairs; ``G`` learns to
produce pairs that fool ``D`` via the policy-gradient signal
``log(1 - D)``, with candidates drawn from ``G``'s own softmax over a
sampled candidate pool (the original's BFS-tree softmax is replaced by
pool sampling; the adversarial alternation is kept). The final embedding
is the generator table, as in the original.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..rng import ensure_rng
from .base import BaselineEmbedder, register

__all__ = ["GraphGAN"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@register
class GraphGAN(BaselineEmbedder):
    """Alternating generator/discriminator training on edge scores."""

    name = "GraphGAN"
    lp_scoring = "edge_features"

    def __init__(self, dim: int = 128, *, rounds: int = 10,
                 batch_size: int = 4096, pool_size: int = 20,
                 lr: float = 0.05, seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.rounds = rounds
        self.batch_size = batch_size
        self.pool_size = pool_size
        self.lr = lr

    def fit(self, graph: Graph) -> "GraphGAN":
        rng = ensure_rng(self.seed)
        n = graph.num_nodes
        scale = 0.5 / self.dim
        gen = rng.uniform(-scale, scale, size=(n, self.dim))
        disc = rng.uniform(-scale, scale, size=(n, self.dim))
        src, dst = graph.arcs()

        for _ in range(self.rounds):
            # --- discriminator step: true edges vs generator samples
            sel = rng.integers(0, len(src), size=min(self.batch_size, len(src)))
            pos_u, pos_v = src[sel], dst[sel]
            neg_u = rng.integers(0, n, size=len(sel))
            pool = rng.integers(0, n, size=(len(sel), self.pool_size))
            logits = np.einsum("bd,bpd->bp", gen[neg_u], gen[pool])
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            pick = (probs.cumsum(axis=1)
                    > rng.random((len(sel), 1))).argmax(axis=1)
            neg_v = pool[np.arange(len(sel)), pick]

            for u_b, v_b, label in ((pos_u, pos_v, 1.0), (neg_u, neg_v, 0.0)):
                score = _sigmoid(np.einsum("bd,bd->b", disc[u_b], disc[v_b]))
                coef = (score - label)[:, None]
                grad_u = coef * disc[v_b]
                grad_v = coef * disc[u_b]
                np.add.at(disc, u_b, -self.lr * grad_u)
                np.add.at(disc, v_b, -self.lr * grad_v)

            # --- generator step: move sampled pairs toward fooling D
            reward = np.log1p(np.exp(np.einsum(
                "bd,bd->b", disc[neg_u], disc[neg_v])))   # -log(1-D) surrogate
            coef = reward[:, None]
            grad_u = -coef * gen[neg_v]
            grad_v = -coef * gen[neg_u]
            np.add.at(gen, neg_u, -self.lr * 0.1 * grad_u)
            np.add.at(gen, neg_v, -self.lr * 0.1 * grad_v)
            # pull generator toward observed edges so it stays on-manifold
            score = _sigmoid(np.einsum("bd,bd->b", gen[pos_u], gen[pos_v]))
            coef = (score - 1.0)[:, None]
            np.add.at(gen, pos_u, -self.lr * coef * gen[pos_v])
            np.add.at(gen, pos_v, -self.lr * coef * gen[pos_u])

        self.embedding_ = gen
        return self
