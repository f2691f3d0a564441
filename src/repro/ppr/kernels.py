"""The frontier spread: the inner step of the streaming residue repair.

:class:`repro.streaming.IncrementalPPR` repairs its propagation iterate
by pushing dense residue rows from a frontier of touched nodes to their
in-neighbors, one sweep at a time. :func:`spread_frontier` evaluates one
such sweep, ``decay * P[:, frontier] @ delta``, with vectorized CSR
gathers over the frontier's in-arcs only: no sparse-matrix slicing and
no ``O(n)`` buffers, so a sweep costs what the frontier's arcs cost.

Multigraph rows keep one entry per parallel arc, and shares are
accumulated with ``np.add.at``, so each parallel arc delivers its share,
consistent with :meth:`repro.graph.Graph.transition_matrix`.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..errors import ParameterError
from ..graph import Graph

__all__ = ["spread_frontier"]


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _gather_rows(indptr: np.ndarray, indices: np.ndarray,
                 nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes``.

    Returns ``(targets, counts)``: the column indices of all rows back
    to back, and each row's length (duplicates preserved, so multigraph
    rows keep one entry per parallel arc).
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    shift = np.repeat(starts - _exclusive_cumsum(counts), counts)
    return indices[np.arange(total, dtype=np.int64) + shift], counts


def spread_frontier(graph: Graph, frontier, delta: np.ndarray, *,
                    decay: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """One push sweep of dense residue rows: ``decay * P[:, frontier] @ delta``.

    ``delta`` holds one length-``k`` residue row per frontier node; the
    sweep moves row ``v`` to every in-neighbor ``u`` scaled by
    ``decay / d_out(u)`` — the multi-column analogue of a backward push
    step, evaluated by gathering the frontier's CSR rows of the
    transpose (no sparse-matrix slicing, no ``O(n)`` buffers).
    Returns ``(rows, spread)``: the sorted affected row indices and
    their dense ``(len(rows), k)`` contributions.
    """
    frontier = np.asarray(frontier, dtype=np.int64).ravel()
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[0] != len(frontier):
        raise ParameterError(
            f"delta must be (len(frontier), k), got {delta.shape} for "
            f"{len(frontier)} frontier nodes")
    if len(frontier) and (frontier.min() < 0
                          or frontier.max() >= graph.num_nodes):
        raise ParameterError(
            f"frontier node out of range [0, {graph.num_nodes})")
    if obs.enabled():
        registry = obs.get_registry()
        registry.counter("kernel_spread_frontier_total").inc()
        registry.histogram("kernel_spread_frontier_rows").observe(
            len(frontier))
    transpose = graph.transpose()
    in_nb, counts = _gather_rows(transpose.indptr, transpose.indices,
                                 frontier)
    if len(in_nb) == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty((0, delta.shape[1])))
    weights = decay * graph.out_degree_inverse()[in_nb]
    expand = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    rows, inverse = np.unique(in_nb, return_inverse=True)
    spread = np.zeros((len(rows), delta.shape[1]))
    np.add.at(spread, inverse, delta[expand] * weights[:, None])
    return rows, spread
