"""Train/test splits for the paper's three evaluation tasks.

Link prediction (paper Section 5.2): remove 30% of randomly selected
edges, embed the residual graph, and score the removed edges against an
equal number of non-edges. On directed graphs pairs are ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..rng import ensure_rng
from .graph import Graph
from .ops import arc_ids, remove_arcs

__all__ = ["LinkPredictionSplit", "link_prediction_split",
           "sample_non_edges", "train_test_nodes"]


@dataclass(frozen=True)
class LinkPredictionSplit:
    """Everything needed to run the paper's link-prediction protocol."""

    train_graph: Graph
    pos_src: np.ndarray
    pos_dst: np.ndarray
    neg_src: np.ndarray
    neg_dst: np.ndarray

    @property
    def test_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated test pairs and their 0/1 labels."""
        src = np.concatenate([self.pos_src, self.neg_src])
        dst = np.concatenate([self.pos_dst, self.neg_dst])
        labels = np.concatenate([np.ones(len(self.pos_src), dtype=np.int8),
                                 np.zeros(len(self.neg_src), dtype=np.int8)])
        return src, dst, labels


def sample_non_edges(graph: Graph, count: int, *, seed=None,
                     forbidden_keys: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` distinct node pairs that are not edges of ``graph``.

    For undirected graphs pairs are unordered (reported with ``u < v``);
    for directed graphs they are ordered. ``forbidden_keys`` lets callers
    additionally exclude e.g. held-out positive edges.
    """
    n = graph.num_nodes
    if count > n * (n - 1) // 4:
        raise ParameterError("too many non-edges requested for graph size")
    rng = ensure_rng(seed)
    # sorted keys u * n + v of every pair a sample must avoid: the arcs
    # (arc_ids are sorted already; for undirected graphs the key of
    # u < v is always stored), the forbidden keys, and each negative
    # once it is drawn. Repeated keys do not disturb the lookup.
    keys = arc_ids(graph)
    if forbidden_keys is not None:
        keys = np.sort(np.concatenate(
            [keys, np.asarray(forbidden_keys, dtype=np.int64).ravel()]))
    out_src: list[np.ndarray] = []
    out_dst: list[np.ndarray] = []
    have = 0
    while have < count:
        want = int((count - have) * 1.3) + 16
        s = rng.integers(0, n, size=want)
        d = rng.integers(0, n, size=want)
        ok = s != d
        s, d = s[ok], d[ok]
        if not graph.directed:
            s, d = np.minimum(s, d), np.maximum(s, d)
        # each draw's new negatives in ascending key order
        cand = np.sort(s * np.int64(n) + d)
        fresh = np.ones(len(cand), dtype=bool)
        fresh[1:] = cand[1:] != cand[:-1]
        pos = np.searchsorted(keys, cand)
        known = pos < len(keys)
        known[known] = keys[pos[known]] == cand[known]
        fresh &= ~known
        cand = cand[fresh]
        keys = np.insert(keys, pos[fresh], cand)
        out_src.append(cand // n)
        out_dst.append(cand % n)
        have += len(cand)
    src = np.concatenate(out_src)[:count]
    dst = np.concatenate(out_dst)[:count]
    return src, dst


def link_prediction_split(graph: Graph, *, test_fraction: float = 0.3,
                          seed=None) -> LinkPredictionSplit:
    """The paper's protocol: hold out ``test_fraction`` of edges + negatives."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError("test_fraction must be in (0, 1)")
    rng = ensure_rng(seed)
    src, dst = graph.edges()
    num_test = int(round(len(src) * test_fraction))
    if num_test == 0 or num_test == len(src):
        raise ParameterError("test split would be empty or total")
    chosen = rng.choice(len(src), size=num_test, replace=False)
    pos_src, pos_dst = src[chosen], dst[chosen]
    train_graph = remove_arcs(graph, pos_src, pos_dst)
    pos_keys = pos_src * np.int64(graph.num_nodes) + pos_dst
    neg_src, neg_dst = sample_non_edges(graph, num_test, seed=rng,
                                        forbidden_keys=np.sort(pos_keys))
    return LinkPredictionSplit(train_graph, pos_src, pos_dst, neg_src, neg_dst)


def train_test_nodes(num_nodes: int, train_fraction: float, *, seed=None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Random node split used by the classification task (Fig. 6 x-axis)."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError("train_fraction must be in (0, 1)")
    rng = ensure_rng(seed)
    perm = rng.permutation(num_nodes)
    cut = max(1, int(round(num_nodes * train_fraction)))
    cut = min(cut, num_nodes - 1)
    return np.sort(perm[:cut]), np.sort(perm[cut:])
