"""The streaming control loop: deltas in, fresh serving versions out.

:class:`StreamingUpdater` owns one model's full streaming state and
wires the tier together:

1. edge deltas accumulate in a :class:`~repro.streaming.DeltaGraph`
   and compact to a fresh CSR snapshot per batch;
2. :class:`~repro.streaming.IncrementalPPR` repairs the ApproxPPR
   factor sketches locally around the touched nodes;
3. :meth:`repro.NRP.warm_refit` re-runs a few reweighting sweeps from
   the previous weights, escalating to a full refit (new SVD basis)
   when the weight drift — or the accumulated basis staleness — says
   the incremental approximation has degraded;
4. :meth:`publish` exports the refreshed model as the next immutable
   version of a store root, and :meth:`swap_into` flips a
   :class:`~repro.serving.ServingRegistry` name onto it atomically.

The ``repro-stream`` CLI (:mod:`repro.cli_stream`) is a thin file-tail
loop over this class; ``benchmarks/bench_streaming.py`` measures it
against per-batch cold refits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.nrp import NRP
from ..errors import ParameterError, ReproError
from ..graph import Graph
from .delta import DeltaGraph
from .incremental import IncrementalPPR

__all__ = ["StreamingConfig", "StreamingUpdater"]


@dataclass(frozen=True)
class StreamingConfig:
    """Streaming-tier knobs (the model's own knobs live on the model).

    ``refresh_tol``
        Residue prune threshold of the incremental PPR repair, in
        final-embedding units.
    ``max_sweeps``
        Cap on propagation rounds per batch (``None`` = ``2 * ell1``).
    ``warm_epochs``
        Reweighting sweep pairs per batch (``None`` = the model's
        ``warm_refit`` default).
    ``drift_threshold``
        Relative weight-drift level above which a batch escalates to a
        full refit (``None`` disables drift escalation).
    ``max_staleness``
        Fraction of arcs changed since the last SVD basis above which a
        batch escalates regardless of drift (``None`` disables). The
        incremental path's one blind spot is spectral drift of the
        adjacency; this bounds how long it can accumulate.
    """

    refresh_tol: float = 1e-8
    max_sweeps: int | None = None
    warm_epochs: int | None = None
    drift_threshold: float | None = 0.2
    max_staleness: float | None = 0.25

    def validate(self) -> None:
        if self.refresh_tol <= 0:
            raise ParameterError("refresh_tol must be positive")
        if self.max_sweeps is not None and self.max_sweeps < 1:
            raise ParameterError("max_sweeps must be >= 1 or None")
        if self.warm_epochs is not None and self.warm_epochs < 0:
            raise ParameterError("warm_epochs must be >= 0 or None")
        if self.drift_threshold is not None and self.drift_threshold <= 0:
            raise ParameterError("drift_threshold must be positive or None")
        if self.max_staleness is not None and self.max_staleness <= 0:
            raise ParameterError("max_staleness must be positive or None")


def _escalation_reason(reason: str | None) -> str:
    """Bucket a free-text escalation reason into a bounded label set.

    Metric labels must stay low-cardinality; the ``warm_refit`` reason
    strings embed numbers, so they are classified, not used verbatim.
    """
    text = (reason or "").lower()
    for label in ("staleness", "drift", "node"):
        if label in text:
            return "node_count" if label == "node" else label
    return "other"


class StreamingUpdater:
    """Keeps one fitted :class:`repro.NRP` fresh under edge deltas."""

    def __init__(self, graph: Graph, model: NRP | None = None, *,
                 config: StreamingConfig | None = None) -> None:
        self.config = config or StreamingConfig()
        self.config.validate()
        if model is None:
            model = NRP(keep_factor_state=True)
        if not isinstance(model, NRP):
            raise ParameterError(
                f"StreamingUpdater drives an NRP model, got "
                f"{type(model).__name__}")
        if not model.keep_factor_state:
            raise ParameterError(
                "the streaming tier needs the model's factor state; "
                "construct it with NRP(..., keep_factor_state=True)")
        if model.forward_ is None:
            model.fit(graph)
        if model.factor_state_ is None:
            raise ReproError(
                "model was fitted without keep_factor_state; refit it "
                "with keep_factor_state=True before streaming")
        if model.factor_state_.x1.shape[0] != graph.num_nodes:
            raise ParameterError(
                f"model was fitted on {model.factor_state_.x1.shape[0]} "
                f"nodes but the graph has {graph.num_nodes}")
        self.model = model
        cfg = model.config
        self.ppr = IncrementalPPR(graph, cfg.approx_config(cfg.seed),
                                  state=model.factor_state_,
                                  tol=self.config.refresh_tol)
        self.delta = DeltaGraph(graph)
        self.num_batches = 0
        self.num_escalations = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The newest compacted snapshot."""
        return self.delta.base

    def apply_batch(self, add_src=None, add_dst=None, *,
                    remove_src=None, remove_dst=None) -> dict:
        """Absorb one delta batch end-to-end; returns a stats record.

        Inserts and deletes are validated and logged, the log compacts
        to a new CSR snapshot, the PPR sketches are repaired locally,
        and the reweighting warm-refits (escalating to a full refit per
        the :class:`StreamingConfig` thresholds). After this returns,
        ``self.model`` scores/serves the *new* graph.
        """
        start = time.perf_counter()
        if add_src is not None and len(np.atleast_1d(add_src)):
            self.delta.add_edges(add_src, add_dst)
        if remove_src is not None and len(np.atleast_1d(remove_src)):
            self.delta.remove_edges(remove_src, remove_dst)
        touched = self.delta.touched_nodes()
        pending = self.delta.pending_arcs()
        arc_deltas = self.delta.num_pending
        new_graph = self.delta.compact()

        # The staleness this batch lands at is known before any sketch
        # repair runs; when it escalates, the full fit recomputes every
        # sketch anyway, so skip the (potentially large-frontier)
        # incremental refresh entirely instead of discarding it.
        staleness = self.ppr.staleness_after(arc_deltas)
        stale = (self.config.max_staleness is not None
                 and staleness > self.config.max_staleness)
        if stale:
            refresh = {"touched": int(len(touched)), "sweeps": 0,
                       "max_residue": 0.0}
            # basis too old to trust: full refit, no drift question asked
            with obs.trace("streaming.refit", reason="staleness"):
                self.model.fit(new_graph)
            # drift is None, not NaN: batch records are emitted as JSON
            # lines and NaN is not valid JSON
            self.model.last_warm_refit_ = {
                "escalated": True, "drift": None, "epochs": 0,
                "reason": f"basis staleness {staleness:.3f} > "
                          f"{self.config.max_staleness:.3f}"}
        else:
            with obs.trace("streaming.repair"):
                refresh = self.ppr.refresh(new_graph, touched,
                                           deltas=pending,
                                           max_sweeps=self.config.max_sweeps)
            x, y = self.ppr.embeddings()
            with obs.trace("streaming.warm_refit"):
                self.model.warm_refit(
                    new_graph, x=x, y=y, epochs=self.config.warm_epochs,
                    drift_threshold=self.config.drift_threshold)
        info = dict(self.model.last_warm_refit_ or {})
        if info.get("escalated"):
            # the full fit computed a fresh basis (keep_factor_state);
            # adopt it so subsequent batches repair the new sketches
            self.num_escalations += 1
            self.ppr.rebase(self.model.factor_state_, new_graph)
        self.num_batches += 1
        record = {"batch": self.num_batches,
                "arc_deltas": int(arc_deltas),
                "touched": refresh["touched"],
                "sweeps": refresh["sweeps"],
                "max_residue": refresh["max_residue"],
                "staleness": float(self.ppr.basis_staleness),
                "escalated": bool(info.get("escalated", False)),
                "drift": info.get("drift"),
                "reason": info.get("reason"),
                "num_nodes": new_graph.num_nodes,
                "num_edges": new_graph.num_edges,
                "seconds": round(time.perf_counter() - start, 4)}
        if obs.enabled():
            self._record_batch_metrics(record)
        return record

    def _record_batch_metrics(self, record: dict) -> None:
        """Publish one ``apply_batch`` stats record to the registry."""
        registry = obs.get_registry()
        registry.counter("streaming_batches_total").inc()
        if record["escalated"]:
            reason = _escalation_reason(record.get("reason"))
            registry.counter("streaming_refits_total",
                             {"reason": reason}).inc()
        else:
            registry.counter("streaming_repairs_total").inc()
        if record.get("drift") is not None:
            registry.gauge("streaming_drift").set(float(record["drift"]))
        registry.gauge("streaming_staleness").set(record["staleness"])
        registry.histogram("streaming_batch_seconds").observe(
            record["seconds"])
        registry.histogram("streaming_touched_nodes").observe(
            record["touched"])

    # ------------------------------------------------------------------
    def publish(self, root, *, metadata: dict | None = None,
                keep: int | None = None, shards: int | None = None):
        """Export the current model as the next version of ``root``.

        Thin wrapper over :func:`repro.serving.publish_version` that
        stamps streaming provenance (batch count, escalations, graph
        size) into the manifest metadata. ``shards`` publishes the
        version as a sharded store root (see
        :mod:`repro.serving.sharding`), so hot-swapping readers flip to
        a scatter-gather layout with the same atomic ``CURRENT`` rename.
        """
        from ..serving.store import publish_version   # lazy: no cycle
        meta = {"stream_batches": self.num_batches,
                "stream_escalations": self.num_escalations,
                "num_nodes": self.graph.num_nodes,
                "num_edges": self.graph.num_edges}
        meta.update(metadata or {})
        if not obs.enabled():
            return publish_version(root, self.model, metadata=meta,
                                   keep=keep, shards=shards)
        start = time.perf_counter()
        with obs.trace("streaming.publish"):
            result = publish_version(root, self.model, metadata=meta,
                                     keep=keep, shards=shards)
        obs.get_registry().histogram("streaming_publish_seconds").observe(
            time.perf_counter() - start)
        return result

    def swap_into(self, registry, name: str, **engine_options):
        """Hot-swap ``registry[name]`` onto the current model's state.

        Registers the name on first use, replaces it afterwards — one
        atomic upsert under the registry lock (a ``contains``-then-
        ``swap`` pair would race a concurrent first publish).
        """
        return registry.register(name, self.model, replace=True,
                                 **engine_options)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StreamingUpdater(n={self.graph.num_nodes}, "
                f"batches={self.num_batches}, "
                f"escalations={self.num_escalations})")
