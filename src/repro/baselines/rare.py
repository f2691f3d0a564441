"""RaRE (Gu et al., WWW'18), simplified: proximity + popularity factors.

RaRE's key idea — separating a node's *social rank* (popularity) from
its *proximity* — is kept: each node gets a proximity vector ``s_v``
and a popularity scalar ``b_v``, with edge probability
``sigma(s_u . s_v + b_u + b_v)`` trained by SGD with negative sampling
(a maximum-a-posteriori point estimate in place of their Bayesian
model's posterior). Link prediction uses the
method's own probability function, per paper Section 5.2; node features
are the proximity vectors with the popularity appended.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..rng import ensure_rng
from .base import BaselineEmbedder, register

__all__ = ["RaRE"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@register
class RaRE(BaselineEmbedder):
    """Proximity vectors + popularity scalars with a MAP objective."""

    name = "RaRE"
    lp_scoring = "inner"     # score_pairs below IS the RaRE probability

    def __init__(self, dim: int = 128, *, epochs: int = 5,
                 num_negatives: int = 5, lr: float = 0.05,
                 reg: float = 1e-3, batch_size: int = 8192,
                 seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.epochs = epochs
        self.num_negatives = num_negatives
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.popularity_: np.ndarray | None = None
        self.proximity_: np.ndarray | None = None

    def fit(self, graph: Graph) -> "RaRE":
        rng = ensure_rng(self.seed)
        n = graph.num_nodes
        prox_dim = self.dim - 1      # one slot goes to popularity
        scale = 0.5 / max(prox_dim, 1)
        s = rng.uniform(-scale, scale, size=(n, prox_dim))
        b = np.zeros(n)
        src, dst = graph.arcs()

        for _ in range(self.epochs):
            order = rng.permutation(len(src))
            for lo in range(0, len(src), self.batch_size):
                sel = order[lo:lo + self.batch_size]
                u, v = src[sel], dst[sel]
                neg_v = rng.integers(0, n, size=(len(sel), self.num_negatives))
                # positive pairs
                p = _sigmoid(np.einsum("bd,bd->b", s[u], s[v]) + b[u] + b[v])
                coef = (p - 1.0)[:, None]
                np.add.at(s, u, -self.lr * (coef * s[v] + self.reg * s[u]))
                np.add.at(s, v, -self.lr * (coef * s[u] + self.reg * s[v]))
                np.add.at(b, u, -self.lr * coef.ravel())
                np.add.at(b, v, -self.lr * coef.ravel())
                # negatives; the popularity gradient is averaged over the
                # negative pool so positive/negative pressure on b is
                # balanced and degree (not sampling rate) drives popularity
                pn = _sigmoid(np.einsum("bd,bnd->bn", s[u], s[neg_v])
                              + b[u][:, None] + b[neg_v])
                coef_n = pn[:, :, None]
                np.add.at(s, u, -self.lr * np.einsum("bnd->bd",
                                                     coef_n * s[neg_v]))
                np.add.at(s, neg_v.ravel(),
                          (-self.lr * (coef_n * s[u][:, None, :]))
                          .reshape(-1, prox_dim))
                np.add.at(b, u, -self.lr * pn.mean(axis=1))
                np.add.at(b, neg_v.ravel(),
                          -self.lr * pn.ravel() / self.num_negatives)

        self.proximity_ = s
        self.popularity_ = b
        self.embedding_ = np.hstack([s, b[:, None]])
        return self

    def score_pairs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """RaRE's connection probability (paper's scoring rule for RaRE)."""
        self._require_fitted()
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        logit = (np.einsum("ij,ij->i", self.proximity_[src],
                           self.proximity_[dst])
                 + self.popularity_[src] + self.popularity_[dst])
        return _sigmoid(logit)
