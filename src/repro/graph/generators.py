"""Synthetic graph generators.

These provide the workloads for the paper's experiments:

* :func:`erdos_renyi` — the scalability sweeps of Fig. 10 (the paper cites
  the Erdős–Rényi model explicitly),
* :func:`powerlaw_community` — an LFR-style generator (power-law degrees +
  planted communities) used to simulate the seven real social/web graphs
  of Table 3, whose degree heterogeneity and community structure are what
  the embedding tasks actually exercise,
* :func:`chung_lu`, :func:`sbm`, :func:`barabasi_albert`,
  :func:`watts_strogatz`, :func:`rmat` — additional reference models used
  in tests and ablations.

All generators are deterministic given ``seed`` and return
:class:`repro.graph.Graph`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..rng import ensure_rng
from .build import from_edges
from .graph import Graph

__all__ = ["erdos_renyi", "chung_lu", "powerlaw_community", "sbm",
           "barabasi_albert", "watts_strogatz", "rmat", "powerlaw_weights"]


class _PairSampler:
    """The distinct pairs of a sequence of random draws, in draw order.

    :meth:`add` drops a draw's self loops (and orders undirected pairs
    ``u < v``), then every pair already kept or repeated earlier in the
    draw. The keys ``u * n + v`` of the kept pairs stay in one sorted
    array, so a draw costs a sort of the draw, not of every pair kept
    so far (the sorted-key rule of :mod:`repro.graph.ops`).
    """

    def __init__(self, num_nodes: int, directed: bool) -> None:
        self.num_nodes = num_nodes
        self.directed = directed
        self.keys = np.empty(0, dtype=np.int64)
        self.src: list[np.ndarray] = []
        self.dst: list[np.ndarray] = []
        self.count = 0

    def add(self, src: np.ndarray, dst: np.ndarray) -> None:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if not self.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        key = src * np.int64(self.num_nodes) + dst
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        first = np.ones(len(ranked), dtype=bool)    # first of its key
        first[1:] = ranked[1:] != ranked[:-1]
        pos = np.searchsorted(self.keys, ranked)
        kept = pos < len(self.keys)
        kept[kept] = self.keys[pos[kept]] == ranked[kept]
        new = first & ~kept
        self.keys = np.insert(self.keys, pos[new], ranked[new])
        idx = np.sort(order[new])
        self.src.append(src[idx])
        self.dst.append(dst[idx])
        self.count += len(idx)

    def graph(self, num_edges: int) -> Graph:
        """The graph of the first ``num_edges`` kept pairs."""
        return from_edges(self.num_nodes,
                          np.concatenate(self.src)[:num_edges],
                          np.concatenate(self.dst)[:num_edges],
                          directed=self.directed)


def erdos_renyi(num_nodes: int, num_edges: int, *, directed: bool = False,
                seed=None) -> Graph:
    """G(n, m): ``num_edges`` distinct uniform random edges, no self loops."""
    if num_nodes < 2:
        raise ParameterError("erdos_renyi needs at least 2 nodes")
    max_edges = num_nodes * (num_nodes - 1)
    if not directed:
        max_edges //= 2
    if num_edges > max_edges:
        raise ParameterError(f"num_edges={num_edges} exceeds max {max_edges}")
    rng = ensure_rng(seed)
    pairs = _PairSampler(num_nodes, directed)
    while pairs.count < num_edges:
        want = int((num_edges - pairs.count) * 1.2) + 16
        s = rng.integers(0, num_nodes, size=want)
        d = rng.integers(0, num_nodes, size=want)
        pairs.add(s, d)
    return pairs.graph(num_edges)


def powerlaw_weights(num_nodes: int, exponent: float = 2.5,
                     min_weight: float = 1.0, seed=None) -> np.ndarray:
    """Pareto(exponent - 1) expected-degree weights, the Chung–Lu input."""
    if exponent <= 1.0:
        raise ParameterError("power-law exponent must exceed 1")
    rng = ensure_rng(seed)
    u = rng.random(num_nodes)
    return min_weight * (1.0 - u) ** (-1.0 / (exponent - 1.0))


def chung_lu(weights: np.ndarray, num_edges: int, *, directed: bool = False,
             seed=None) -> Graph:
    """Chung–Lu: endpoints drawn proportionally to ``weights``."""
    rng = ensure_rng(seed)
    w = np.asarray(weights, dtype=np.float64)
    p = w / w.sum()
    n = len(w)
    pairs = _PairSampler(n, directed)
    # Heavy-tailed weights produce many duplicate pairs; oversample and retry.
    while pairs.count < num_edges:
        want = int((num_edges - pairs.count) * 1.5) + 16
        s = rng.choice(n, size=want, p=p)
        d = rng.choice(n, size=want, p=p)
        pairs.add(s, d)
    return pairs.graph(num_edges)


def powerlaw_community(num_nodes: int, num_edges: int, *,
                       num_communities: int = 10, mixing: float = 0.2,
                       exponent: float = 2.5, directed: bool = False,
                       seed=None) -> tuple[Graph, np.ndarray]:
    """LFR-style graph: power-law degrees with planted communities.

    Each arc endpoint pair is sampled within one community with
    probability ``1 - mixing`` (endpoints ∝ node weight restricted to the
    community) and globally otherwise. Returns ``(graph, community_id)``;
    the community array drives label generation for node classification.
    """
    if not 0.0 <= mixing <= 1.0:
        raise ParameterError("mixing must be in [0, 1]")
    if num_communities < 1 or num_communities > num_nodes:
        raise ParameterError("invalid num_communities")
    rng = ensure_rng(seed)
    weights = powerlaw_weights(num_nodes, exponent=exponent, seed=rng)
    # Community sizes skewed like real social graphs (larger first).
    raw = rng.dirichlet(np.linspace(2.0, 0.5, num_communities)) * num_nodes
    sizes = np.maximum(1, raw.astype(np.int64))
    while sizes.sum() > num_nodes:
        sizes[sizes.argmax()] -= 1
    while sizes.sum() < num_nodes:
        sizes[sizes.argmin()] += 1
    community = np.repeat(np.arange(num_communities), sizes)
    rng.shuffle(community)

    members = [np.flatnonzero(community == c) for c in range(num_communities)]
    member_p = []
    comm_mass = np.empty(num_communities)
    for c in range(num_communities):
        wc = weights[members[c]]
        comm_mass[c] = wc.sum()
        member_p.append(wc / wc.sum())
    comm_p = comm_mass / comm_mass.sum()
    global_p = weights / weights.sum()

    pairs = _PairSampler(num_nodes, directed)
    while pairs.count < num_edges:
        want = int((num_edges - pairs.count) * 1.5) + 32
        is_local = rng.random(want) < (1.0 - mixing)
        n_local = int(is_local.sum())
        s = np.empty(want, dtype=np.int64)
        d = np.empty(want, dtype=np.int64)
        # local arcs: pick a community ∝ its weight mass, endpoints inside it
        comms = rng.choice(num_communities, size=n_local, p=comm_p)
        counts = np.bincount(comms, minlength=num_communities)
        local_s = np.empty(n_local, dtype=np.int64)
        local_d = np.empty(n_local, dtype=np.int64)
        offset = 0
        order = np.argsort(comms, kind="stable")
        for c in range(num_communities):
            cnt = counts[c]
            if cnt == 0:
                continue
            local_s[offset:offset + cnt] = rng.choice(members[c], size=cnt,
                                                      p=member_p[c])
            local_d[offset:offset + cnt] = rng.choice(members[c], size=cnt,
                                                      p=member_p[c])
            offset += cnt
        s[np.flatnonzero(is_local)[order]] = local_s
        d[np.flatnonzero(is_local)[order]] = local_d
        n_glob = want - n_local
        glob_idx = np.flatnonzero(~is_local)
        s[glob_idx] = rng.choice(num_nodes, size=n_glob, p=global_p)
        d[glob_idx] = rng.choice(num_nodes, size=n_glob, p=global_p)
        pairs.add(s, d)
    return pairs.graph(num_edges), community


def sbm(sizes, p_within: float, p_between: float, *, directed: bool = False,
        seed=None) -> tuple[Graph, np.ndarray]:
    """Stochastic block model with uniform within/between probabilities."""
    rng = ensure_rng(seed)
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    block = np.repeat(np.arange(len(sizes)), sizes)
    # Dense Bernoulli sampling; fine for the test-scale graphs we use.
    probs = np.where(block[:, None] == block[None, :], p_within, p_between)
    mask = rng.random((n, n)) < probs
    np.fill_diagonal(mask, False)
    if not directed:
        mask = np.triu(mask)
    src, dst = np.nonzero(mask)
    return from_edges(n, src, dst, directed=directed), block


def barabasi_albert(num_nodes: int, attach: int, *, seed=None) -> Graph:
    """Preferential attachment (undirected): each new node adds ``attach`` edges."""
    if attach < 1 or attach >= num_nodes:
        raise ParameterError("attach must be in [1, num_nodes)")
    rng = ensure_rng(seed)
    targets = list(range(attach))
    repeated: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    for v in range(attach, num_nodes):
        chosen = set()
        while len(chosen) < attach:
            if repeated and rng.random() < 0.9:
                cand = repeated[int(rng.integers(0, len(repeated)))]
            else:
                cand = targets[int(rng.integers(0, len(targets)))]
            chosen.add(int(cand))
        for t in chosen:
            src.append(v)
            dst.append(t)
            repeated.extend([v, t])
        targets.append(v)
    return from_edges(num_nodes, src, dst, directed=False)


def watts_strogatz(num_nodes: int, ring_degree: int, rewire_prob: float, *,
                   seed=None) -> Graph:
    """Small-world ring lattice with random rewiring."""
    if ring_degree % 2 or ring_degree >= num_nodes:
        raise ParameterError("ring_degree must be even and < num_nodes")
    rng = ensure_rng(seed)
    src: list[int] = []
    dst: list[int] = []
    half = ring_degree // 2
    for u in range(num_nodes):
        for j in range(1, half + 1):
            v = (u + j) % num_nodes
            if rng.random() < rewire_prob:
                v = int(rng.integers(0, num_nodes))
                while v == u:
                    v = int(rng.integers(0, num_nodes))
            src.append(u)
            dst.append(v)
    return from_edges(num_nodes, src, dst, directed=False)


def rmat(scale: int, num_edges: int, *, a: float = 0.57, b: float = 0.19,
         c: float = 0.19, directed: bool = True, seed=None) -> Graph:
    """R-MAT / Kronecker generator (power-law, community-ish structure)."""
    d = 1.0 - a - b - c
    if d < 0:
        raise ParameterError("a + b + c must be <= 1")
    rng = ensure_rng(seed)
    n = 1 << scale
    pairs = _PairSampler(n, directed)
    probs = np.array([a, b, c, d])
    while pairs.count < num_edges:
        want = int((num_edges - pairs.count) * 1.3) + 16
        s = np.zeros(want, dtype=np.int64)
        t = np.zeros(want, dtype=np.int64)
        for _ in range(scale):
            quad = rng.choice(4, size=want, p=probs)
            s = (s << 1) | (quad >> 1)
            t = (t << 1) | (quad & 1)
        pairs.add(s, t)
    return pairs.graph(num_edges)
