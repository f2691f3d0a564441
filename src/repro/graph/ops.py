"""Graph transformations: edge insertion/removal, subgraphs, components.

The arc-set operations (:func:`add_arcs`, :func:`remove_arcs`,
:func:`arc_index_of`) work on sorted keys. A CSR row is sorted and
duplicate-free, so the keys ``u * n + v`` of a graph's arcs, read in
storage order (:func:`arc_ids`), are sorted and unique too, and the
position of a key in that array is the position of its arc in
``graph.indices``. One ``np.searchsorted`` of a request's keys therefore
finds both the arcs already present and the insert positions, and the
new CSR is one ``np.insert`` / ``np.delete`` of ``indices`` plus a
cumulative shift of ``indptr``: a batch costs one vectorized pass over
the graph and a binary search per requested arc, not a pass that hashes
every stored arc.

Do not call ``np.isin``, ``np.setdiff1d``, ``np.union1d`` or
``np.unique`` on arc-key arrays, here or in the streaming modules that
validate, compact and diff through this one (``streaming/delta.py``,
``streaming/incremental.py``). NumPy 2.4 runs ``np.unique`` on int64
keys through its hash path (``_unique_hash``), and ``np.isin`` without
``assume_unique`` calls ``np.unique`` on both inputs. Measured on a
2-vCPU Xeon VM: ``np.unique`` takes 75 ms for 216k random int64 keys
against 2.5 ms for ``np.sort`` plus an adjacent-difference test, and
99 ms against 3.1 ms for 288k keys. To dedupe a request, sort it and
compare neighbours.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ParameterError
from .build import from_edges
from .graph import Graph

__all__ = ["add_arcs", "remove_arcs", "subgraph",
           "largest_connected_component", "arc_ids", "arc_index_of"]


def arc_ids(graph: Graph) -> np.ndarray:
    """Key ``u * n + v`` of every stored arc, in storage order.

    The keys are sorted and unique, and key ``i`` belongs to the arc
    stored at ``graph.indices[i]``.
    """
    src, dst = graph.arcs()
    return src * np.int64(graph.num_nodes) + dst


def _lookup(keys: np.ndarray, queries: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray]:
    """Insert positions of ``queries`` in sorted ``keys``, and which hit."""
    pos = np.searchsorted(keys, queries)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == queries[hit]
    return pos, hit


def _arc_request(graph: Graph, sources, destinations,
                 caller: str) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a request to int64 arrays; check lengths and the id range.

    The range check is what keeps keys unambiguous: ``(u, v + n)`` would
    have the key of ``(u + 1, v)``.
    """
    src = np.asarray(sources, dtype=np.int64).ravel()
    dst = np.asarray(destinations, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ParameterError("sources and destinations must have equal length")
    n = graph.num_nodes
    if len(src) and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= n):
        raise ParameterError(
            f"arc endpoint out of range [0, {n}) in {caller}")
    return src, dst


def arc_index_of(graph: Graph, sources: np.ndarray, destinations: np.ndarray) -> np.ndarray:
    """Positions of arcs ``(u, v)`` inside ``graph.indices`` (-1 if absent).

    Endpoints must lie in ``[0, n)`` and the two arrays must have equal
    length, as for :func:`add_arcs`.
    """
    src, dst = _arc_request(graph, sources, destinations, "arc_index_of")
    pos, hit = _lookup(arc_ids(graph), src * np.int64(graph.num_nodes) + dst)
    return np.where(hit, pos, -1)


def add_arcs(graph: Graph, sources, destinations) -> Graph:
    """Return a copy of ``graph`` with the given arcs inserted.

    The exact counterpart of :func:`remove_arcs`: for undirected graphs
    the reverse arcs are inserted too, so the result stays symmetric,
    and the CSR rows of the result are sorted and duplicate-free like
    every :class:`Graph`. Unlike ``remove_arcs`` (where removing an
    absent arc is a harmless no-op) inserting an arc that already exists
    — in the graph, or twice in the request — raises
    :class:`ParameterError`: callers batching deltas (``DeltaGraph``)
    rely on the arc count growing by exactly ``len(sources)``. Self
    loops and out-of-range endpoints are rejected for the same reason.
    """
    src, dst = _arc_request(graph, sources, destinations, "add_arcs")
    if len(src) == 0:
        return Graph(graph.indptr.copy(), graph.indices.copy(),
                     directed=graph.directed)
    if np.any(src == dst):
        raise ParameterError("add_arcs rejects self loops")
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    n = graph.num_nodes
    keys = np.sort(src * np.int64(n) + dst)
    if np.any(keys[1:] == keys[:-1]):
        # For undirected graphs this also catches (u, v) and (v, u)
        # requested together, which alias the same edge.
        raise ParameterError("duplicate arcs in add_arcs request")
    pos, clash = _lookup(arc_ids(graph), keys)
    if clash.any():
        key = int(keys[clash][0])
        raise ParameterError(
            f"arc ({key // n}, {key % n}) already present in add_arcs")
    # keys are sorted, so arcs sharing an insert position keep their order
    indices = np.insert(graph.indices, pos, keys % n)
    indptr = graph.indptr.copy()
    indptr[1:] += np.cumsum(np.bincount(keys // n, minlength=n))
    return Graph(indptr, indices, directed=graph.directed)


def remove_arcs(graph: Graph, sources, destinations) -> Graph:
    """Return a copy of ``graph`` with the given arcs removed.

    For undirected graphs the reverse arcs are removed too, so the result
    stays symmetric. Arcs not present are ignored; endpoints must lie in
    ``[0, n)`` and the two arrays must have equal length, as for
    :func:`add_arcs`.
    """
    src, dst = _arc_request(graph, sources, destinations, "remove_arcs")
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    n = graph.num_nodes
    keys = np.sort(src * np.int64(n) + dst)
    # dedupe: an arc named twice must still shift indptr only once
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    pos, hit = _lookup(arc_ids(graph), keys)
    indptr = graph.indptr.copy()
    indptr[1:] -= np.cumsum(np.bincount(keys[hit] // n, minlength=n))
    return Graph(indptr, np.delete(graph.indices, pos[hit]),
                 directed=graph.directed)


def subgraph(graph: Graph, nodes) -> Graph:
    """Induced subgraph on ``nodes`` with ids remapped to ``0..len-1``."""
    nodes = np.asarray(sorted(set(np.asarray(nodes, dtype=np.int64).tolist())),
                       dtype=np.int64)
    remap = -np.ones(graph.num_nodes, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    src, dst = graph.arcs()
    keep = (remap[src] >= 0) & (remap[dst] >= 0)
    if not graph.directed:
        # arcs() stores both directions; from_edges re-symmetrizes, so feed
        # each undirected edge once.
        keep &= src <= dst
    return from_edges(len(nodes), remap[src[keep]], remap[dst[keep]],
                      directed=graph.directed)


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph of the largest (weakly) connected component."""
    n_comp, labels = sp.csgraph.connected_components(
        graph.adjacency(), directed=graph.directed, connection="weak")
    if n_comp <= 1:
        return graph
    counts = np.bincount(labels)
    return subgraph(graph, np.flatnonzero(labels == counts.argmax()))
