"""In-process workloads (``fit_sparse``, ``fit_dense``, ``stream``) and
the interface every ledger workload implements.

A workload has three calls. ``setup(seed, workdir)`` builds the inputs
from the seed and brings the system to where measurement starts; the
runner times it several times, reports the median as ``setup_s`` and
keeps the last few states. ``measure(states, seconds, recorder,
quality)`` runs the measured loop on them and returns a :class:`Pass`:
the end-to-end numbers, the correctness checks and, when ``recorder``
is given (a ``--trace`` run), the per-layer numbers. ``close(state)``
releases what setup created. Two class attributes complete it:
``LATENCY_Q``, the percentile of the unit latencies reported as
``latency_ms``, and ``CONSUMES_STATE``, whether a pass uses up its
state so that a second pass needs another.

Per-layer time metrics are *shares*: the part of the workload's unit of
work (one fit, one stream batch) spent in one layer, so they sit on the
same scale on every workload and read 0 where a workload never calls
into the layer.
"""

from __future__ import annotations

import shutil
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import NRP, obs
from repro.core.objective import reweighting_objective
from repro.graph import link_prediction_split, powerlaw_community, remove_arcs
from repro.serving import ServingRegistry, open_current
from repro.streaming import StreamingConfig, StreamingUpdater, incremental
from repro.tasks.link_prediction import evaluate_link_prediction

from loadgen import percentile
from spans import Recorder

__all__ = ["MAX_SECONDS", "FitWorkload", "Pass", "StreamWorkload",
           "median", "workload_rng"]

K = 10
#: the longest measured pass a workload supports
MAX_SECONDS = 60


@dataclass
class Pass:
    """What one measured pass of a workload produced.

    ``latencies_ms`` holds one latency per unit of work (a failed one
    is infinite); ``goodput`` is units of work per second.
    """

    attempted: int
    failed: int
    latencies_ms: list[float]
    goodput: float
    quality: float | None = None
    checks: dict[str, bool] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q)


def workload_rng(name: str, seed: int) -> np.random.Generator:
    """The generator behind every input of workload ``name`` at ``seed``."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def _finite(*matrices) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(m)))) for m in matrices)


def _timed_obs(recorder: Recorder | None, name: str, call, *,
               parent: dict | None = None):
    """Run ``call()``; traced, record it as span ``name`` and adopt the
    :mod:`repro.obs` trees it emitted as children. Returns
    ``(result, seconds, span)``."""
    if recorder is not None:
        obs.reset()
    wall, start = time.time(), time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    span = None
    if recorder is not None:
        span = recorder.add(name, wall, wall + seconds, parent=parent)
        for root in obs.get_registry().spans():
            recorder.adopt_obs(root, span)
    return result, seconds, span


@contextmanager
def _tracing(recorder: Recorder | None):
    """Turn :mod:`repro.obs` collection on for a traced pass."""
    if recorder is None:
        yield
        return
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)
        obs.reset()


def _objective(model: NRP, graph) -> float:
    """Eq. (6) of ``model``'s final weights on ``graph``."""
    return reweighting_objective(
        model.base_forward_, model.base_backward_, model.w_fwd_,
        model.w_bwd_, graph.out_degrees.astype(np.float64),
        graph.in_degrees.astype(np.float64), model.config.lam)


# ----------------------------------------------------------------------
# fit_sparse / fit_dense
# ----------------------------------------------------------------------

@dataclass
class _FitState:
    split: object
    eval_seed: int
    setup_parts: dict


class FitWorkload:
    """``NRP(dim=128)`` fits, repeated for the run's seconds, on the 70%
    link-prediction train split of a community graph.

    ``latency_ms`` is the fastest fit of the run: the fits are identical
    compute, and on a shared machine the slower ones measure the
    neighbours (timeit's reasoning).
    """

    LATENCY_Q = 0
    CONSUMES_STATE = False
    # nodes, edges, communities; sized so one run holds several fits. The
    # sweeps cost the same per node however dense the graph, so fit_dense
    # needs about 240 edges a node before the SVD and propagation take
    # most of a fit; with one community its generator rejects few
    # duplicate edges, so setup stays short.
    SIZES = {"fit_sparse": (6_000, 30_000, 50),
             "fit_dense": (2_000, 480_000, 1)}
    #: held-out AUC floors at full scale: the seed-0 AUC minus 0.03 (the
    #: widest seed-to-seed range), rounded down
    AUC_FLOOR = {"fit_sparse": 0.79, "fit_dense": 0.74}
    LAYERS = ("core.svd_share", "core.propagation_share",
              "core.reweighting_share", "core.fit_self_share",
              "core.objective", "graph.build_share")

    def __init__(self, name: str, *, scale: float = 1.0) -> None:
        nodes, edges, communities = self.SIZES[name]
        self.name = name
        self.scale = scale
        self.nodes = max(200, int(nodes * scale))
        self.edges = min(int(edges * scale), self.nodes * (self.nodes - 1) // 8)
        self.communities = communities

    def setup(self, seed: int, workdir: Path) -> _FitState:
        rng = workload_rng(self.name, seed)
        start = time.perf_counter()
        graph, _ = powerlaw_community(self.nodes, self.edges,
                                      num_communities=self.communities,
                                      seed=rng)
        split = link_prediction_split(graph, test_fraction=0.3, seed=rng)
        return _FitState(split, int(rng.integers(2**31)),
                         {"graph.build_share": time.perf_counter() - start})

    def close(self, state: _FitState) -> None:
        pass

    def measure(self, states: list[_FitState], seconds: float,
                recorder: Recorder | None = None,
                quality: bool = True) -> Pass:
        state = states[-1]
        graph = state.split.train_graph
        times: list[float] = []
        spans: list[dict] = []
        model = None
        with _tracing(recorder):
            start = time.perf_counter()
            while not times or time.perf_counter() - start < seconds:
                model, took, span = _timed_obs(
                    recorder, "bench.fit", lambda: NRP(dim=128).fit(graph))
                times.append(took)
                spans.append(span)
        auc = evaluate_link_prediction(model, state.split,
                                       seed=state.eval_seed).auc
        result = Pass(attempted=len(times), failed=0,
                      latencies_ms=[t * 1e3 for t in times],
                      goodput=1.0 / min(times), quality=auc)
        result.checks["embeddings finite"] = _finite(model.forward_,
                                                     model.backward_)
        if self.scale == 1.0:
            result.checks[f"auc >= {self.AUC_FLOOR[self.name]}"] = (
                auc >= self.AUC_FLOOR[self.name])
        if recorder is not None:
            result.layers, result.detail = self._layers(recorder, spans,
                                                        model, graph)
        return result

    @staticmethod
    def _layers(recorder: Recorder, spans: list[dict], model,
                graph) -> tuple[dict, dict]:
        phases = {"core.svd_share": "approx_ppr.svd",
                  "core.propagation_share": "approx_ppr.propagation",
                  "core.reweighting_share": "nrp.reweighting"}
        shares: dict[str, list[float]] = {key: [] for key in phases}
        shares["core.fit_self_share"] = []
        for span in spans:
            total = span["end"] - span["start"]
            for key, name in phases.items():
                shares[key].append(recorder.duration(
                    recorder.descendants(span, name)) / total)
            fit_self = sum(recorder.self_time(s)
                           for s in recorder.descendants(span, "nrp.fit"))
            shares["core.fit_self_share"].append(fit_self / total)
        layers = {key: median(values) for key, values in shares.items()}
        layers["core.objective"] = _objective(model, graph)
        fit_ms = median(s["end"] - s["start"] for s in spans) * 1e3
        detail = {key.replace("_share", "_ms"): value * fit_ms
                  for key, value in layers.items() if key.endswith("_share")}
        return layers, detail


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------

@dataclass
class _StreamState:
    old_edges: int
    updater: StreamingUpdater
    registry: ServingRegistry
    root: Path
    batches: list[tuple[np.ndarray, np.ndarray]]
    queries: np.ndarray
    overlap_nodes: np.ndarray
    setup_parts: dict


class StreamWorkload:
    """10% of a community graph's edges replayed in 30 batches through
    ``StreamingUpdater``; each batch ends with a published version
    answering a query. ``latency_ms`` is the median batch, from handing
    the batch in to the new version answering."""

    LATENCY_Q = 50
    CONSUMES_STATE = True
    NODES, EDGES, COMMUNITIES, BATCHES = 6_000, 120_000, 25, 30
    HELD_OUT = 0.10
    OVERLAP_SAMPLE = 1500
    LAYERS = ("streaming.compact_share", "streaming.repair_share",
              "core.warm_refit_share", "serving.publish_share",
              "serving.swap_share", "serving.engine_share",
              "streaming.touched_nodes", "ppr.spread_rows",
              "streaming.escalations", "core.objective",
              "graph.build_share", "core.cold_fit_share")

    def __init__(self, name: str = "stream", *, scale: float = 1.0) -> None:
        self.name = name
        self.nodes = max(300, int(self.NODES * scale))
        self.edges = min(int(self.EDGES * scale),
                         self.nodes * (self.nodes - 1) // 8)

    def setup(self, seed: int, workdir: Path) -> _StreamState:
        rng = workload_rng(self.name, seed)
        start = time.perf_counter()
        graph, _ = powerlaw_community(self.nodes, self.edges,
                                      num_communities=self.COMMUNITIES,
                                      mixing=0.2, seed=rng)
        src, dst = graph.edges()
        held = rng.choice(len(src), size=int(len(src) * self.HELD_OUT),
                          replace=False)
        old = remove_arcs(graph, src[held], dst[held])
        built = time.perf_counter()
        updater = StreamingUpdater(
            old, NRP(keep_factor_state=True),
            config=StreamingConfig(warm_epochs=1, refresh_tol=1e-6))
        fitted = time.perf_counter()
        root = workdir / "store"
        updater.publish(root, keep=2)
        registry = ServingRegistry()
        registry.register(self.name, open_current(root), replace=True)
        return _StreamState(
            old_edges=old.num_edges, updater=updater, registry=registry,
            root=root,
            batches=[(src[part], dst[part])
                     for part in np.array_split(held, self.BATCHES)],
            queries=rng.integers(0, self.nodes, size=self.BATCHES),
            overlap_nodes=rng.choice(
                self.nodes, size=min(self.OVERLAP_SAMPLE, self.nodes),
                replace=False),
            setup_parts={"graph.build_share": built - start,
                         "core.cold_fit_share": fitted - built})

    def close(self, state: _StreamState) -> None:
        state.registry.close()
        shutil.rmtree(state.root, ignore_errors=True)

    def measure(self, states: list[_StreamState], seconds: float,
                recorder: Recorder | None = None,
                quality: bool = True) -> Pass:
        # The replay is the fixed unit of work: all batches run, however
        # long they take, so every run absorbs the same edges.
        state, = states
        updater, registry = state.updater, state.registry
        latencies: list[float] = []
        records: list[dict] = []
        answered: list[bool] = []
        counter = _SpreadCounter() if recorder is not None else None
        with _tracing(recorder), (counter or nullcontext()):
            for i, (src, dst) in enumerate(state.batches):
                wall, start = time.time(), time.perf_counter()
                root = (recorder.add("bench.update", wall, wall)
                        if recorder is not None else None)
                record, _, _ = _timed_obs(
                    recorder, "bench.apply_batch",
                    lambda: updater.apply_batch(src, dst), parent=root)
                store, _, _ = _timed_obs(
                    recorder, "bench.publish",
                    lambda: updater.publish(state.root, keep=2), parent=root)
                engine, _, _ = _timed_obs(
                    recorder, "bench.swap",
                    lambda: registry.register(
                        self.name, open_current(state.root), replace=True),
                    parent=root)
                (ids, scores), _, _ = _timed_obs(
                    recorder, "bench.query",
                    lambda: engine.topk(int(state.queries[i]), K),
                    parent=root)
                latencies.append(time.perf_counter() - start)
                if root is not None:
                    root["end"] = root["start"] + latencies[-1]
                records.append(record)
                answered.append(
                    engine.source.version == store.version and len(ids) == K
                    and bool(np.all((ids >= 0) & (ids < self.nodes)))
                    and _finite(scores))
        model = updater.model
        replayed = sum(len(src) for src, _ in state.batches)
        result = Pass(attempted=len(latencies),
                      failed=answered.count(False),
                      latencies_ms=[t * 1e3 for t in latencies],
                      goodput=1.0 / median(latencies))
        result.checks["final edges = old + replayed"] = (
            updater.graph.num_edges == state.old_edges + replayed)
        result.checks["every version answered a query"] = all(answered)
        result.checks["embeddings finite"] = _finite(model.forward_,
                                                     model.backward_)
        if quality:
            result.quality = self._overlap(model, updater.graph,
                                           state.overlap_nodes)
        if recorder is not None:
            result.layers, result.detail = self._layers(
                recorder, records, counter.rows, updater)
        return result

    @staticmethod
    def _overlap(model, graph, nodes: np.ndarray) -> float:
        """Mean top-10 overlap against a cold refit on the final graph."""
        cold = NRP().fit(graph)
        ids_a, _ = model.to_serving(cache_size=0).topk(nodes, K)
        ids_b, _ = cold.to_serving(cache_size=0).topk(nodes, K)
        return float(np.mean([len(set(a.tolist()) & set(b.tolist())) / K
                              for a, b in zip(ids_a, ids_b)]))

    @staticmethod
    def _layers(recorder: Recorder, records: list[dict], spread_rows: int,
                updater: StreamingUpdater) -> tuple[dict, dict]:
        shares: dict[str, list[float]] = {}

        def add(key: str, seconds: float, total: float) -> None:
            shares.setdefault(key, []).append(seconds / total)

        for update in recorder.roots("bench.update"):
            total = update["end"] - update["start"]
            parts = {c["name"]: c for c in recorder.children(update)}
            apply_span = parts["bench.apply_batch"]
            add("streaming.compact_share", recorder.self_time(apply_span),
                total)
            add("streaming.repair_share", recorder.duration(
                recorder.descendants(apply_span, "streaming.repair")), total)
            add("core.warm_refit_share", recorder.duration(
                recorder.descendants(apply_span, "streaming.warm_refit")),
                total)
            for key, name in (("serving.publish_share", "bench.publish"),
                              ("serving.swap_share", "bench.swap"),
                              ("serving.engine_share", "bench.query")):
                add(key, recorder.duration([parts[name]]), total)
        layers = {key: median(values) for key, values in shares.items()}
        update_ms = median(s["end"] - s["start"]
                           for s in recorder.roots("bench.update")) * 1e3
        detail = {key.replace("_share", "_ms"): value * update_ms
                  for key, value in layers.items()}
        layers.update({
            "streaming.touched_nodes": float(sum(r["touched"]
                                                 for r in records)),
            "ppr.spread_rows": float(spread_rows),
            "streaming.escalations": float(sum(r["escalated"]
                                               for r in records)),
            "core.objective": _objective(updater.model, updater.graph)})
        return layers, detail


class _SpreadCounter:
    """Count the rows ``repro.ppr.kernels.spread_frontier`` returns to the
    incremental PPR repair while the context is open."""

    def __init__(self) -> None:
        self.rows = 0
        self._original = None

    def __enter__(self):
        self._original = original = incremental.spread_frontier

        def counting(*args, **kwargs):
            rows, contrib = original(*args, **kwargs)
            self.rows += len(rows)
            return rows, contrib

        incremental.spread_frontier = counting
        return self

    def __exit__(self, *exc) -> None:
        incremental.spread_frontier = self._original
