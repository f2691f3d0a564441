"""GA / Watch Your Step (Abu-El-Haija et al., NeurIPS'18), simplified.

The original learns a softmax *attention* distribution ``q`` over walk
lengths, defining the expected co-occurrence ``E = sum_i q_i P^i``, and
factorizes it jointly with the attention by gradient descent. We keep
both ingredients but alternate them instead of optimizing them jointly:

1. given ``q``, factorize ``sum_i q_i P^i`` with randomized SVD into
   forward/backward halves (GA is direction-aware);
2. given the factorization, update the attention logits by projected
   gradient descent on the squared reconstruction error.

Dense ``P^i`` powers cap the method at ``max_dense_nodes`` — in the
paper GA likewise fails to scale past small graphs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..graph import Graph
from ..linalg import randomized_svd
from .base import BaselineEmbedder, register

__all__ = ["GraphAttention"]


@register
class GraphAttention(BaselineEmbedder):
    """Learned attention over transition-matrix powers, factorized."""

    name = "GA"
    directional = True
    lp_scoring = "inner"

    def __init__(self, dim: int = 128, *, context_size: int = 5,
                 rounds: int = 4, lr: float = 1.0,
                 max_dense_nodes: int = 8_000, seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        if context_size < 1:
            raise ParameterError("context_size must be >= 1")
        self.context_size = context_size
        self.rounds = rounds
        self.lr = lr
        self.max_dense_nodes = max_dense_nodes
        self.attention_: np.ndarray | None = None

    def fit(self, graph: Graph) -> "GraphAttention":
        n = graph.num_nodes
        if n > self.max_dense_nodes:
            raise ParameterError(
                f"GA materializes dense P^i powers; refusing beyond "
                f"{self.max_dense_nodes} nodes")
        dense_p = graph.transition_matrix().toarray()
        powers = []
        cur = dense_p.copy()
        for _ in range(self.context_size):
            powers.append(cur)
            cur = cur @ dense_p
        logits = np.zeros(self.context_size)
        k_prime = self.dim // 2
        fwd = bwd = None
        for _ in range(self.rounds):
            q = np.exp(logits - logits.max())
            q /= q.sum()
            target = sum(qi * pi for qi, pi in zip(q, powers))
            u, s, v = randomized_svd(target, min(k_prime, n - 1),
                                     seed=self.seed)
            root = np.sqrt(s)[None, :]
            fwd, bwd = u * root, v * root
            recon = fwd @ bwd.T
            resid = target - recon
            # d/d q_i of ||sum q_i P^i - recon||^2, chain through softmax
            grad_q = np.array([2.0 * float((resid * pi).sum())
                               for pi in powers])
            grad_logits = q * (grad_q - float(q @ grad_q))
            logits -= self.lr * grad_logits
        self.attention_ = np.exp(logits - logits.max())
        self.attention_ /= self.attention_.sum()
        self.forward_ = fwd
        self.backward_ = bwd
        return self
