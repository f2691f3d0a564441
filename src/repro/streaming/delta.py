"""Append-only edge-delta log layered over the immutable CSR graph.

:class:`repro.graph.Graph` is deliberately immutable — every fitted
pipeline stage hangs cached state off a fixed arc set. Streaming
ingestion therefore never mutates a graph in place; it accumulates edge
inserts/deletes in a :class:`DeltaGraph` log and periodically *compacts*
the log into a fresh CSR snapshot (via :func:`repro.graph.ops.add_arcs`
/ :func:`~repro.graph.ops.remove_arcs`), the same write-ahead-log ->
immutable-segment design LSM stores use.

Between compactions the log answers the one question the incremental
refresh needs: *which nodes' out-neighborhoods changed* — that set
drives the local PPR sketch repair in
:class:`repro.streaming.IncrementalPPR`.

A delta call is validated against the base with one ``searchsorted``
of its arc keys over the base's sorted keys
(:func:`repro.graph.ops.arc_index_of`), and its duplicates are found by
sorting the call's keys and comparing neighbours; compaction merges the
same way. So a batch costs one vectorized pass over the base plus a
binary search per delta. As in :mod:`repro.graph.ops`, no ``np.isin``
or ``np.unique`` runs over arc keys here: the ops module docstring has
the measurement behind that rule.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..graph import Graph
from ..graph.ops import add_arcs, arc_index_of, remove_arcs

__all__ = ["DeltaGraph"]


class DeltaGraph:
    """Edge insert/delete log over a base :class:`Graph`.

    ``add_edges`` / ``remove_edges`` validate and append to the log;
    :meth:`compact` materializes a new CSR :class:`Graph` with the log
    applied and resets the log around the new base. For undirected
    bases an edge delta implies both arcs, exactly as the base graph
    stores them.

    Deltas are validated *against the log's net effect*, not just the
    base: inserting an edge that is already present (in the base or an
    earlier pending insert) or deleting one that is absent raises
    :class:`ParameterError` — silent double-applies are how streaming
    pipelines drift from their source of truth.
    """

    def __init__(self, base: Graph) -> None:
        self.base = base
        # net pending state per arc key u * n + v: +1 insert, -1 delete
        self._pending: dict[int, int] = {}
        self._touched: set[int] = set()
        self.num_applied_batches = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    @property
    def directed(self) -> bool:
        return self.base.directed

    @property
    def num_pending(self) -> int:
        """Pending arc-level deltas (2x the edge count when undirected)."""
        return len(self._pending)

    def touched_nodes(self) -> np.ndarray:
        """Sorted nodes whose out-neighborhood differs from the base."""
        return np.array(sorted(self._touched), dtype=np.int64)

    # ------------------------------------------------------------------
    def _arc_keys(self, sources, destinations,
                  ) -> tuple[np.ndarray, np.ndarray]:
        src = np.asarray(sources, dtype=np.int64).ravel()
        dst = np.asarray(destinations, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ParameterError(
                "sources and destinations must have equal length")
        n = self.base.num_nodes
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            raise ParameterError(f"edge endpoint out of range [0, {n})")
        if np.any(src == dst):
            raise ParameterError("self loops are not valid edge deltas")
        if not self.base.directed:
            src = np.concatenate([src, np.asarray(destinations,
                                                  dtype=np.int64).ravel()])
            dst = np.concatenate([dst, np.asarray(sources,
                                                  dtype=np.int64).ravel()])
        return src, dst

    def _apply(self, sources, destinations, sign: int) -> None:
        src, dst = self._arc_keys(sources, destinations)
        n = self.base.num_nodes
        keys = src * np.int64(n) + dst
        ordered = np.sort(keys)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ParameterError("duplicate arcs in one delta call")
        # validate the whole call before mutating: a rejected call must
        # leave the log exactly as it was
        key_list = keys.tolist()
        exists = arc_index_of(self.base, src, dst) >= 0
        if self._pending:
            net = np.array([self._pending.get(key, 0) for key in key_list],
                           dtype=np.int64)
            exists = np.where(net == 0, exists, net > 0)
        bad = exists if sign > 0 else ~exists
        if bad.any():
            key = key_list[int(np.argmax(bad))]
            if sign > 0:
                raise ParameterError(
                    f"cannot insert arc ({key // n}, {key % n}): "
                    f"already present")
            raise ParameterError(
                f"cannot delete arc ({key // n}, {key % n}): "
                f"not present (delete rejected)")
        for key, u in zip(key_list, src.tolist()):
            net = self._pending.get(key, 0) + sign
            # an insert+delete pair cancels back to the base state
            if net == 0:
                self._pending.pop(key, None)
            else:
                self._pending[key] = net
            self._touched.add(u)

    def add_edges(self, sources, destinations) -> None:
        """Log edge insertions (both arcs when the base is undirected)."""
        self._apply(sources, destinations, +1)

    def remove_edges(self, sources, destinations) -> None:
        """Log edge deletions (both arcs when the base is undirected)."""
        self._apply(sources, destinations, -1)

    # ------------------------------------------------------------------
    def pending_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, destinations, signs)`` of the net pending log."""
        if not self._pending:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        n = self.base.num_nodes
        keys = np.array(sorted(self._pending), dtype=np.int64)
        signs = np.array([self._pending[int(k)] for k in keys],
                         dtype=np.int64)
        return keys // n, keys % n, signs

    def compact(self) -> Graph:
        """Apply the log to the base, reset around the new CSR snapshot.

        Returns the new base graph. The log validates every delta on the
        way in, so ``add_arcs``'s duplicate check can only fire on a bug
        in this class — it is the integrity backstop, not a user-facing
        path.
        """
        src, dst, signs = self.pending_arcs()
        graph = self.base
        if len(src):
            # arcs were symmetrized at log time; feed compact as arcs by
            # temporarily treating the graph as directed would lose the
            # invariant checks, so apply arc lists through the directed
            # identities: add_arcs/remove_arcs re-symmetrize undirected
            # inputs, hence pass each undirected edge once (u < v form).
            ins, del_ = signs > 0, signs < 0
            if not graph.directed:
                once = src < dst
                ins &= once
                del_ &= once
            if del_.any():
                graph = remove_arcs(graph, src[del_], dst[del_])
            if ins.any():
                graph = add_arcs(graph, src[ins], dst[ins])
        self.base = graph
        self._pending.clear()
        self._touched.clear()
        self.num_applied_batches += 1
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DeltaGraph(base={self.base!r}, "
                f"pending={self.num_pending})")
