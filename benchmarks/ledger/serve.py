"""Serving workloads (``serve_scalar``, ``serve_batch``) against the real
``repro-serve serve`` process.

Setup writes a store of seeded random directional embeddings, starts
``python -m repro.serving.cli serve STORE --port 0`` (every other flag
at its default) and warms it up. The measured pass is an open loop at a
fixed rate followed by a closed loop, both from :mod:`loadgen`.

A traced pass also tags every request with a ``traceparent`` header, so
the server's ``/debug/traces`` trees join the client's ``bench.request``
spans by trace id, and differences the server's cumulative ``/metrics``
histograms across each phase to read per-layer percentiles.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

import numpy as np

import repro
from repro.io import EmbeddingBundle
from repro.serving import QueryEngine, export_store, shard_store

from loadgen import (Client, closed_loop, max_connections, open_loop,
                     poisson_schedule, summarize)
from spans import Recorder, new_trace_id
from workloads import K, MAX_SECONDS, Pass, median, workload_rng

__all__ = ["ServeWorkload", "ServerProcess", "histogram_quantile",
           "parse_prometheus"]

MODEL = "ledger"
TOPK_ROUTE = "/v1/{model}/topk"


class ServerProcess:
    """``repro-serve serve`` in a child process, stopped on :meth:`stop`."""

    def __init__(self, store: Path, log: Path) -> None:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._log = open(log, "w", encoding="utf-8")
        self.client: Client | None = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.cli", "serve", str(store),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError(
                    f"repro-serve did not start: "
                    f"{log.read_text(encoding='utf-8')[-2000:]}")
            self.port = int(json.loads(line)["port"])
        except BaseException:
            self.stop()
            raise
        self.client = Client("127.0.0.1", self.port, timeout=30.0)

    def get(self, path: str) -> bytes:
        status, body = self.client.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return body

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self._log.close()


# ----------------------------------------------------------------------
# Prometheus text: cumulative histograms, differenced across a phase
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """``{(name, ((label, value), ...)): value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, key)] = float(value)
    return samples


def _series(samples: dict, name: str, match: dict) -> dict:
    """Bucket counts by ``le`` summed over every series of histogram
    ``name`` whose labels include ``match``; plus ``sum`` and ``count``."""
    out = {"buckets": {}, "sum": 0.0, "count": 0.0}
    want = set(match.items())
    for (sample, labels), value in samples.items():
        label_map = dict(labels)
        if not want <= set(labels):
            continue
        if sample == f"{name}_bucket":
            le = float(label_map["le"])
            out["buckets"][le] = out["buckets"].get(le, 0.0) + value
        elif sample == f"{name}_sum":
            out["sum"] += value
        elif sample == f"{name}_count":
            out["count"] += value
    return out


def histogram_delta(before: dict, after: dict, name: str,
                    match: dict | None = None) -> dict:
    """What histogram ``name`` observed between two scrapes."""
    a = _series(before, name, match or {})
    b = _series(after, name, match or {})
    return {"buckets": {le: count - a["buckets"].get(le, 0.0)
                        for le, count in b["buckets"].items()},
            "sum": b["sum"] - a["sum"], "count": b["count"] - a["count"]}


def histogram_quantile(delta: dict, q: float) -> float:
    """The ``q``-quantile of a differenced histogram, interpolated inside
    the bucket where the cumulative count crosses ``q * count`` (0 when
    the histogram saw nothing)."""
    edges = sorted(delta["buckets"])
    total = delta["buckets"][edges[-1]] if edges else 0.0
    if total <= 0:
        return 0.0
    target = q * total
    lower, below = 0.0, 0.0
    for edge in edges:
        cum = delta["buckets"][edge]
        if cum >= target and cum > below:
            if math.isinf(edge):
                return lower
            return lower + (edge - lower) * (target - below) / (cum - below)
        lower, below = edge, cum
    return lower


def _merge(deltas: list[dict]) -> dict:
    """One histogram delta holding everything ``deltas`` observed."""
    merged = {"buckets": {}, "sum": 0.0, "count": 0.0}
    for delta in deltas:
        for le, count in delta["buckets"].items():
            merged["buckets"][le] = merged["buckets"].get(le, 0.0) + count
        merged["sum"] += delta["sum"]
        merged["count"] += delta["count"]
    return merged


def _counter_delta(before: dict, after: dict, name: str) -> float:
    total = 0.0
    for key, value in after.items():
        if key[0] == name:
            total += value - before.get(key, 0.0)
    return total


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

@dataclass
class _ServeState:
    bundle: EmbeddingBundle
    server: ServerProcess
    due: np.ndarray
    sources: np.ndarray
    setup_parts: dict
    passes: int = 0


class ServeWorkload:
    """Top-10 requests over HTTP: an open loop at a fixed rate, then a
    closed loop, from at most ``os.cpu_count()`` keep-alive clients.
    ``latency_ms`` is the open loop's median, timed from due times."""

    NODES, DIM = 20_000, 64
    LATENCY_Q = 50
    CONSUMES_STATE = False
    # shards, open-loop rate (req/s), sources per request, Zipf exponent
    # (None: uniform), goodput latency limit (s), share of the window in
    # the open loop (the rest is a closed loop, whose goodput is reported;
    # with no closed loop goodput comes from the open loop)
    CONFIG = {"serve_scalar": (None, 250.0, 1, 1.3, 0.010, 0.6),
              "serve_batch": (4, 20.0, 64, None, 0.100, 1.0)}
    CLIENTS = 2
    CHECK_EVERY = 50
    WARMUP_S = 1.0
    # length of the open-loop schedule: an untraced and a traced pass
    SCHEDULE_S = 2 * MAX_SECONDS
    # request rows beyond the open-loop schedule for the closed loops,
    # reused cyclically by a longer closed loop
    CLOSED_ROWS = 20_000
    LAYERS = ("http.request_share", "http.wire_share",
              "http.queue_wait_share", "http.self_share",
              "serving.engine_share", "router.shard_share",
              "router.merge_share", "http.batch_requests",
              "serving.cache_hit_rate", "loadgen.lag_share")

    def __init__(self, name: str, *, scale: float = 1.0) -> None:
        self.name = name
        (self.shards, self.rate, self.per_request, self.zipf, self.limit,
         self.open_share) = self.CONFIG[name]
        self.nodes = max(1000, int(self.NODES * scale))
        self.path = f"/v1/{MODEL}/topk"

    def setup(self, seed: int, workdir: Path) -> _ServeState:
        rng = workload_rng(self.name, seed)
        scale = 1.0 / math.sqrt(self.DIM)
        bundle = EmbeddingBundle(
            name=MODEL, directional=True,
            forward=rng.standard_normal((self.nodes, self.DIM)) * scale,
            backward=rng.standard_normal((self.nodes, self.DIM)) * scale)
        store = workdir / "store"
        if self.shards is None:
            export_store(bundle, store)
        else:
            shard_store(bundle, store, num_shards=self.shards)
        due = poisson_schedule(rng, self.rate, self.SCHEDULE_S)
        count = (len(due) + self.CLOSED_ROWS) * self.per_request
        if self.zipf is None:
            sources = rng.integers(0, self.nodes, size=count)
        else:
            weights = np.arange(1, self.nodes + 1) ** -self.zipf
            ranks = rng.choice(self.nodes, size=count,
                               p=weights / weights.sum())
            sources = rng.permutation(self.nodes)[ranks]
        sources = sources.reshape(-1, self.per_request)
        server = ServerProcess(store, workdir / "server.log")
        try:
            self._warm_up(server, sources)
        except BaseException:
            server.stop()
            raise
        return _ServeState(bundle, server, due, sources, {})

    def close(self, state: _ServeState) -> None:
        state.server.stop()

    def _warm_up(self, server: ServerProcess, sources: np.ndarray) -> None:
        """Concurrent traffic from the end of the request rows until the
        first coalesced engine calls and the hot cache entries are paid
        for; without it the first second of the open loop runs an order
        of magnitude slower than the rest."""
        def send(client: Client, i: int) -> bool:
            status, _ = client.request("POST", self.path,
                                       self._body(sources, -1 - i))
            return status == 200

        samples = closed_loop(
            send, self.WARMUP_S,
            [Client("127.0.0.1", server.port)
             for _ in range(max_connections(self.CLIENTS))])
        if not samples or not all(s.ok for s in samples):
            raise RuntimeError("warm-up requests failed")

    def _body(self, sources: np.ndarray, i: int) -> bytes:
        """Request ``i``: row ``i`` of the sources, cycling past the end."""
        nodes = sources[i % len(sources)]
        if self.per_request == 1:
            return json.dumps({"node": int(nodes[0]), "k": K}).encode()
        return json.dumps({"nodes": nodes.tolist(), "k": K}).encode()

    def measure(self, states: list[_ServeState], seconds: float,
                recorder: Recorder | None = None,
                quality: bool = True) -> Pass:
        # Every server started during setup serves an equal slice of the
        # window, each slice an open loop then a closed loop: how fast one
        # server process runs differs from the next by up to a third on a
        # small shared VM, and pooling keeps one process from deciding the
        # run. The states share their inputs, so request i is the same
        # wherever it goes, and each pass continues the request stream
        # where the previous one stopped instead of replaying requests
        # whose answers the servers already cache.
        inputs = states[0]
        window, inputs.passes = inputs.passes, inputs.passes + 1
        open_total = seconds * self.open_share
        open_s = open_total / len(states)
        closed_s = seconds * (1.0 - self.open_share) / len(states)
        checked: dict[int, bytes] = {}

        def send(client: Client, i: int) -> bool:
            headers = {"content-type": "application/json"}
            if recorder is not None:
                trace_id = new_trace_id()
                headers["traceparent"] = (
                    f"00-{trace_id}-{os.urandom(8).hex()}-01")
                start = time.time()
            status, body = client.request(
                "POST", self.path, self._body(inputs.sources, i), headers)
            if recorder is not None:
                recorder.add("bench.request", start, time.time(),
                             trace_id=trace_id)
            if status == 200 and i % self.CHECK_EVERY == 0:
                checked[i] = body
            return status == 200

        def clients(state: _ServeState) -> list[Client]:
            return [Client("127.0.0.1", state.server.port)
                    for _ in range(max_connections(self.CLIENTS))]

        errors: list[str] = []
        open_samples, closed_samples, scrapes, traces = [], [], [], []
        # the rows past the schedule feed the closed loops, half per pass
        next_closed = len(inputs.due) + window * self.CLOSED_ROWS // 2
        for j, state in enumerate(states):
            lo = window * open_total + j * open_s
            segment = (inputs.due >= lo) & (inputs.due < lo + open_s)
            scrape = [self._scrape(state)] if recorder is not None else []
            open_samples += open_loop(send, inputs.due[segment] - lo,
                                      clients(state),
                                      first_index=int(np.argmax(segment)),
                                      errors=errors)
            if recorder is not None:
                scrape.append(self._scrape(state))
                traces += json.loads(state.server.get(
                    f"/debug/traces?route={quote(TOPK_ROUTE, safe='')}"
                    f"&limit=256"))["traces"]
            if closed_s > 0:
                samples = closed_loop(send, closed_s, clients(state),
                                      first_index=next_closed,
                                      errors=errors)
                closed_samples += samples
                next_closed += len(samples)
                if recorder is not None:
                    scrape.append(self._scrape(state))
            if scrape:
                scrapes.append(scrape)

        opened = summarize(open_samples, duration=open_s * len(states),
                           limit=self.limit)
        closed = (summarize(closed_samples, duration=closed_s * len(states),
                            limit=self.limit) if closed_samples else opened)
        result = Pass(attempted=len(open_samples) + len(closed_samples),
                      failed=sum(not s.ok
                                 for s in open_samples + closed_samples),
                      latencies_ms=[s.latency * 1e3 for s in open_samples],
                      goodput=closed["goodput"], errors=errors)
        result.detail = {"open_requests": len(open_samples),
                         "closed_requests": len(closed_samples),
                         "lag_p99_ms": opened["lag_p99_ms"],
                         "service_p50_ms": opened["service_p50_ms"]}
        recall, exact = self._verify(inputs, checked)
        result.quality = recall
        result.checks["no request failed"] = result.failed == 0
        result.checks[f"every {self.CHECK_EVERY}th response matches "
                      f"QueryEngine"] = exact and bool(checked)
        if recorder is not None:
            result.layers, layer_ms = self._layers(recorder, opened,
                                                   scrapes, traces)
            result.detail.update(layer_ms)
        return result

    def _scrape(self, state: _ServeState) -> dict:
        return parse_prometheus(state.server.get("/metrics").decode())

    def _verify(self, state: _ServeState,
                checked: dict[int, bytes]) -> tuple[float, bool]:
        """Recall@10 of the checked responses against an in-process
        engine on the same matrices, and whether all matched exactly
        (ids equal, scores within 1e-9)."""
        engine = QueryEngine(state.bundle, cache_size=0)
        recalls, exact = [], True
        for i, body in sorted(checked.items()):
            payload = json.loads(body)
            rows = payload["results"] if "results" in payload else [payload]
            nodes = [row["node"] for row in rows]
            expect_ids, expect_scores = engine.topk(nodes, K)
            for row, want_ids, want_scores in zip(rows, expect_ids,
                                                  expect_scores):
                got_ids = np.asarray(row["neighbors"])
                got_scores = np.asarray(row["scores"], dtype=np.float64)
                recalls.append(len(set(got_ids.tolist())
                                   & set(want_ids.tolist())) / K)
                exact = exact and (
                    got_ids.shape == want_ids.shape
                    and bool(np.all(got_ids == want_ids))
                    and bool(np.all(np.isfinite(got_scores)))
                    and bool(np.all(np.abs(got_scores - want_scores)
                                    <= 1e-9)))
        return (float(np.mean(recalls)) if recalls else 0.0), exact

    @staticmethod
    def _layers(recorder: Recorder, opened: dict, scrapes: list[list[dict]],
                traces: list[dict]) -> tuple[dict, dict]:
        """Per-layer shares of the client p50 from the servers' histogram
        deltas over the open loops (request batching over the closed
        loops, when there are any) and from their trace rings."""
        def delta(name: str, match: dict | None = None,
                  phase: int = 0) -> dict:
            return _merge([histogram_delta(s[phase], s[phase + 1], name,
                                           match) for s in scrapes])

        def p50(name: str, match: dict | None = None) -> float:
            return histogram_quantile(delta(name, match), 0.5) * 1e3

        request_ms = p50("http_request_seconds", {"route": TOPK_ROUTE})
        hits, misses = (sum(_counter_delta(s[0], s[1], name)
                            for s in scrapes)
                        for name in ("serving_cache_hits_total",
                                     "serving_cache_misses_total"))
        batches = delta("http_batch_requests",
                        phase=len(scrapes[0]) - 2)
        by_trace = {s["trace_id"]: s for s in recorder.roots("bench.request")}
        self_ms = []
        for record in traces:
            # the ring also holds warm-up and untraced-pass requests
            client = by_trace.get(record["trace_id"])
            if client is None:
                continue
            tree = record["tree"]
            waits = sum(child["duration_seconds"]
                        for child in tree.get("children", ())
                        if child["name"] in ("http.queue", "http.batch"))
            self_ms.append((tree["duration_seconds"] - waits) * 1e3)
            recorder.adopt_tree(
                tree, record["recorded_at"] - tree["duration_seconds"], client)
        ms = {"http.request_ms": request_ms,
              "http.wire_ms": opened["service_p50_ms"] - request_ms,
              "http.queue_wait_ms": p50("http_queue_wait_seconds"),
              "http.self_ms": median(self_ms) if self_ms else 0.0,
              "serving.engine_ms": p50("span_seconds",
                                       {"name": "serving.engine"}),
              "router.shard_ms": p50("span_seconds", {"name": "router.shard"}),
              "router.merge_ms": p50("router_merge_seconds"),
              "loadgen.lag_ms": opened["lag_p99_ms"]}
        client_ms = opened["p50_ms"]
        layers = {key.replace("_ms", "_share"): value / client_ms
                  for key, value in ms.items()}
        layers["http.batch_requests"] = (batches["sum"] / batches["count"]
                                         if batches["count"] else 0.0)
        layers["serving.cache_hit_rate"] = (hits / (hits + misses)
                                            if hits + misses else 0.0)
        return layers, ms
