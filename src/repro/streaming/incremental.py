"""Incremental repair of the ApproxPPR factor sketches after edge deltas.

A cold :func:`repro.core.approx_ppr_embeddings` run has two costs: the
randomized SVD of ``A`` (the basis) and the ``ell1`` truncated power
iterations (the propagation). When a small batch of edges changes, the
dominant spectral structure of ``A`` barely moves — so this module keeps
the SVD basis **fixed** and repairs only the propagation, locally, in
the spirit of dynamic forward-push PPR maintenance (residues seeded at
the changed nodes, pushed until they fall below a threshold).

Two identities make the repair cheap:

* ``U sqrt(Sigma) = A V Sigma^-1/2``, so a changed adjacency row
  updates its ``X_1`` row in ``O(degree * k')`` from the retained
  ``v_scaled = V Sigma^-1/2`` basis — no new SVD;
* ``X_1[v]`` and ``P[v]`` only enter row ``v`` of the iteration
  ``X <- (1 - alpha) P X + X_1``, so a changed row perturbs other rows
  exclusively through *incoming* arcs — deltas propagate over a frontier
  that starts at the touched nodes and decays by ``(1 - alpha)`` per
  hop, exactly like a push residue.

The repaired iterate converges to the **fixed point**
``x* = sum_{i >= 0} (1 - alpha)^i P^i X_1`` rather than the cold path's
``ell1``-truncated sum; the two differ by the geometric tail
``sum_{i >= ell1} (1 - alpha)^i P^i X_1``, bounded entrywise by
``(1 - alpha)^ell1 / alpha`` times the ``X_1`` scale — for the paper's
defaults (``alpha = 0.15, ell1 = 20``) a ``~0.26`` relative factor on
terms that are themselves far below one SVD ``eps`` of signal. The
bound is documented here and pinned by
``tests/streaming/test_incremental.py``. What the fixed basis cannot
absorb is *spectral* drift of ``A`` itself; callers monitor
:attr:`IncrementalPPR.basis_staleness` (fraction of arcs changed since
the basis was computed) and escalate to a full refit, which
:class:`repro.streaming.StreamingUpdater` wires to
:meth:`repro.NRP.warm_refit`'s drift threshold.

The repair runs in float64. Algorithm 1 leaves a float32
:class:`~repro.core.PPRFactorState`; its four arrays are cast once, when
:class:`IncrementalPPR` is constructed and at :meth:`IncrementalPPR.rebase`,
so no batch casts anything and the embeddings handed to the warm refit
are float64. The iterates ``x1`` and ``x_iter`` are copies; the state
object itself is never written.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.approx_ppr import ApproxPPRConfig, PPRFactorState, approx_ppr_state
from ..errors import ParameterError, ReproError
from ..graph import Graph
from ..ppr.kernels import spread_frontier

__all__ = ["IncrementalPPR", "changed_rows"]


def changed_rows(old: Graph, new: Graph) -> np.ndarray:
    """Nodes whose out-neighborhood differs between two same-size graphs."""
    if old.num_nodes != new.num_nodes:
        raise ParameterError(
            f"graphs have different node counts "
            f"({old.num_nodes} vs {new.num_nodes})")
    # CSR rows are sorted, so a row is unchanged exactly when its degree
    # is and its indices are equal position by position
    d_old, d_new = old.out_degrees, new.out_degrees
    same = d_old == d_new
    changed = ~same
    rows = np.repeat(np.arange(old.num_nodes), np.where(same, d_old, 0))
    differs = (old.indices[np.repeat(same, d_old)]
               != new.indices[np.repeat(same, d_new)])
    changed[rows[differs]] = True
    return np.flatnonzero(changed)


class IncrementalPPR:
    """Maintains ApproxPPR factor sketches under streaming edge deltas.

    Parameters
    ----------
    graph:
        The graph the sketches currently describe.
    config:
        The :class:`ApproxPPRConfig` of the base factorization; its
        ``alpha`` drives propagation decay and ``ell1`` caps repair
        sweeps.
    state:
        A :class:`PPRFactorState` from :func:`approx_ppr_state` (or a
        ``keep_factor_state=True`` :class:`repro.NRP` fit). ``None``
        computes one here. The mutable iterates are copied, so the
        caller's state object stays frozen at fit time.
    tol:
        Residue prune threshold **in final-embedding units**: a delta
        row stops propagating once its max-abs entry, scaled by
        ``alpha (1 - alpha)``, falls below ``tol``.
    """

    def __init__(self, graph: Graph, config: ApproxPPRConfig, *,
                 state: PPRFactorState | None = None,
                 tol: float = 1e-8) -> None:
        config.validate()
        if tol <= 0:
            raise ParameterError(f"tol must be positive, got {tol!r}")
        if state is None:
            state = approx_ppr_state(graph, config)
        if state.x1.shape[0] != graph.num_nodes:
            raise ParameterError(
                f"factor state holds {state.x1.shape[0]} rows but the "
                f"graph has {graph.num_nodes} nodes")
        self.graph = graph
        self.config = config
        self.tol = float(tol)
        self._adopt(state)
        #: arc-level deltas absorbed since the SVD basis was computed
        self.arcs_changed_since_basis = 0
        self._basis_arcs = max(1, graph.num_arcs)

    def _adopt(self, state: PPRFactorState) -> None:
        """Take ``state``'s four arrays as float64, copying the two
        iterates that :meth:`refresh` writes."""
        self.x1 = np.array(state.x1, dtype=np.float64)
        self.x_iter = np.array(state.x_iter, dtype=np.float64)
        self.y = np.asarray(state.y, dtype=np.float64)
        self.v_scaled = np.asarray(state.v_scaled, dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def basis_staleness(self) -> float:
        """Fraction of the basis-time arc count changed since the basis."""
        return self.arcs_changed_since_basis / self._basis_arcs

    def staleness_after(self, extra_arc_deltas: int) -> float:
        """The staleness once ``extra_arc_deltas`` more deltas land.

        Lets a caller decide *before* paying for :meth:`refresh` whether
        a batch will cross its staleness-escalation threshold anyway.
        """
        return ((self.arcs_changed_since_basis + extra_arc_deltas)
                / self._basis_arcs)

    def embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(X, Y)`` in :func:`approx_ppr_embeddings` scaling."""
        scale = self.config.alpha * (1.0 - self.config.alpha)
        return self.x_iter * scale, self.y

    # ------------------------------------------------------------------
    def _repair_x1(self, new_graph: Graph, touched: np.ndarray,
                   deltas=None) -> None:
        """Update ``x1`` rows from adjacency deltas via ``v_scaled``.

        ``x1[v] = (A[v] @ v_scaled) / d(v)``, so the new row is the old
        numerator (``d_old * x1[v]`` — exact, including the SVD's
        approximation of ``U``) plus the delta-row contribution, over
        the new degree. ``deltas`` is an optional ``(src, dst, signs)``
        arc-delta triple (what ``DeltaGraph.pending_arcs`` reports);
        when given the repair is fully vectorized, otherwise each
        touched row is diffed against the old CSR.
        """
        d_old = self.graph.out_degrees
        d_new = new_graph.out_degrees
        if deltas is not None:
            src, dst, signs = (np.asarray(a, dtype=np.int64) for a in deltas)
            # accumulate into a (touched, k') buffer, not an (n, k') one:
            # a small batch on a massive graph must not allocate O(n k')
            idx = np.searchsorted(touched, src)
            if len(src) and (np.any(idx >= len(touched))
                             or np.any(touched[idx] != src)):
                raise ParameterError(
                    "deltas reference source nodes missing from touched")
            numer = d_old[touched, None] * self.x1[touched]
            np.add.at(numer, idx,
                      np.sign(signs)[:, None] * self.v_scaled[dst])
            dn = d_new[touched].astype(np.float64)
            safe = np.maximum(dn, 1.0)
            self.x1[touched] = np.where(dn[:, None] > 0,
                                        numer / safe[:, None], 0.0)
            self.arcs_changed_since_basis += len(src)
            return
        for v in touched.tolist():
            old_nb = self.graph.out_neighbors(v)
            new_nb = new_graph.out_neighbors(v)
            added = np.setdiff1d(new_nb, old_nb, assume_unique=True)
            removed = np.setdiff1d(old_nb, new_nb, assume_unique=True)
            numer = d_old[v] * self.x1[v]
            if len(added):
                numer = numer + self.v_scaled[added].sum(axis=0)
            if len(removed):
                numer = numer - self.v_scaled[removed].sum(axis=0)
            self.x1[v] = numer / d_new[v] if d_new[v] else 0.0
            self.arcs_changed_since_basis += len(added) + len(removed)

    def refresh(self, new_graph: Graph, touched=None, *,
                deltas=None, max_sweeps: int | None = None) -> dict:
        """Absorb ``new_graph``'s edge deltas into the sketches.

        ``touched`` is the set of nodes whose out-neighborhoods changed
        (what :meth:`repro.streaming.DeltaGraph.touched_nodes` reports);
        ``None`` computes it by diffing the arc sets. ``deltas`` is the
        optional ``(src, dst, signs)`` arc-delta triple (from
        ``DeltaGraph.pending_arcs``) that lets the ``x1`` repair skip
        re-diffing the CSRs. ``max_sweeps`` caps the propagation rounds
        (default ``2 * ell1``; each round shrinks the un-pushed residue
        by ``1 - alpha``). Returns a stats dict: touched rows, sweeps
        run, the frontier trajectory, and the largest residue left
        unpushed.
        """
        if new_graph.num_nodes != self.num_nodes:
            raise ReproError(
                f"incremental refresh requires a fixed node set "
                f"({self.num_nodes} nodes fitted, graph has "
                f"{new_graph.num_nodes}); refit instead")
        if new_graph.directed != self.graph.directed:
            raise ReproError("cannot refresh across directedness changes")
        if touched is None:
            touched = changed_rows(self.graph, new_graph)
        touched = np.unique(np.asarray(touched, dtype=np.int64))
        if len(touched) and (touched[0] < 0 or touched[-1] >= self.num_nodes):
            raise ParameterError(
                f"touched node out of range [0, {self.num_nodes})")
        cfg = self.config
        if max_sweeps is None:
            max_sweeps = 2 * cfg.ell1
        stats = {"touched": int(len(touched)), "sweeps": 0,
                 "frontier": [], "max_residue": 0.0}
        if len(touched) == 0:
            self.graph = new_graph
            return stats

        self._repair_x1(new_graph, touched, deltas)
        decay = 1.0 - cfg.alpha
        scale = cfg.alpha * decay
        raw_tol = self.tol / scale

        p_new = new_graph.transition_matrix()
        # Seed residues: recompute the touched rows of the iteration map
        # against the current iterate; the difference is the residue.
        target = decay * (p_new[touched] @ self.x_iter) + self.x1[touched]
        delta = np.asarray(target) - self.x_iter[touched]
        self.x_iter[touched] = np.asarray(target)

        # Propagate residues to in-neighbors: one application of the map
        # moves a row delta to rows u with an arc (u, v), scaled by
        # (1 - alpha) / d(u) — i.e. (1 - alpha) * P[:, frontier] @ delta.
        # Two evaluation strategies, picked per sweep: a narrow frontier
        # runs one sweep of the kernel layer's frontier spread
        # (:func:`repro.ppr.kernels.spread_frontier` — CSR gathers over
        # the frontier's in-arcs only, no sparse slicing, no O(n)
        # buffers); a wide one scatters the deltas into a dense buffer
        # and runs one full CSR product. The crossover ~5% of nodes is
        # where per-arc gathering starts losing to the full product.
        n = self.num_nodes
        buffer = None    # O(n k') scratch; only the wide path needs it
        active_idx, active_delta = touched, delta
        for _ in range(max_sweeps):
            keep = np.max(np.abs(active_delta), axis=1) > raw_tol
            active_idx = active_idx[keep]
            active_delta = active_delta[keep]
            if len(active_idx) == 0:
                break
            stats["sweeps"] += 1
            stats["frontier"].append(int(len(active_idx)))
            if len(active_idx) > 0.05 * n:
                if buffer is None:
                    buffer = np.zeros_like(self.x_iter)
                else:
                    buffer[:] = 0.0
                buffer[active_idx] = active_delta
                spread = decay * (p_new @ buffer)
                # apply every nonzero contribution (free: already
                # computed), but only rows above tol keep propagating
                rows = np.flatnonzero(np.abs(spread).max(axis=1) > 0.0)
                if len(rows) > 0.5 * n:
                    self.x_iter += spread
                else:
                    self.x_iter[rows] += spread[rows]
                active_idx, active_delta = rows, spread[rows]
            else:
                rows, contrib = spread_frontier(new_graph, active_idx,
                                                active_delta, decay=decay)
                self.x_iter[rows] += contrib
                active_idx, active_delta = rows, contrib
        if len(active_idx):
            stats["max_residue"] = float(
                np.abs(active_delta).max() * scale)
        self.graph = new_graph
        return stats

    # ------------------------------------------------------------------
    def rebase(self, state: PPRFactorState, graph: Graph | None = None,
               ) -> None:
        """Adopt a fresh factorization (after a full refit) as the basis."""
        if graph is not None:
            self.graph = graph
        if state.x1.shape[0] != self.graph.num_nodes:
            raise ParameterError(
                f"rebase state holds {state.x1.shape[0]} rows but the "
                f"graph has {self.graph.num_nodes} nodes")
        self._adopt(state)
        self.arcs_changed_since_basis = 0
        self._basis_arcs = max(1, self.graph.num_arcs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IncrementalPPR(n={self.num_nodes}, "
                f"k'={self.x1.shape[1]}, tol={self.tol}, "
                f"staleness={self.basis_staleness:.3f})")
