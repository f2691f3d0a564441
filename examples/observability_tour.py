"""Observability tour: watch a fit -> serve -> query loop from inside.

Everything in :mod:`repro.obs` is off by default — instrumented call
sites cost one branch. This tour flips collection on and walks the
pipeline:

1. enable collection (``obs.set_enabled``) and fit NRP on a synthetic
   community graph — the fit leaves a nested span tree (``nrp.fit`` ->
   svd / propagation / reweighting) behind;
2. serve top-k queries through a sharded engine — per-shard fan-out
   spans, merge/straggler timings, and cache hit/miss counters
   accumulate per query;
3. apply a streaming delta batch — repair-vs-refit counters and the
   drift gauge record how the updater decided;
4. print the trace tree, the Prometheus text exposition, and write a
   JSON snapshot — the same artifact the CLIs produce via
   ``--metrics-json``.

Run with::

    PYTHONPATH=src python examples/observability_tour.py
"""

import json
import tempfile
from pathlib import Path

from repro import NRP, obs
from repro.graph import powerlaw_community
from repro.streaming import StreamingUpdater


def print_span(span: dict, depth: int = 0) -> None:
    millis = span["duration_seconds"] * 1000
    attrs = span.get("attributes")
    print(f"  {'  ' * depth}{span['name']}: {millis:.1f}ms"
          + (f"  {attrs}" if attrs else ""))
    for child in span.get("children", ()):
        print_span(child, depth + 1)


def main() -> None:
    obs.configure_logging("info")
    obs.set_enabled(True)

    # -- 1. fit: a nested span tree accumulates ----------------------
    graph, _ = powerlaw_community(2000, 12000, num_communities=5, seed=7)
    model = NRP(dim=32, seed=0, keep_factor_state=True).fit(graph)
    print("== trace tree left behind by fit ==")
    for span in obs.get_registry().spans():
        print_span(span.to_dict())

    # -- 2. serve: per-shard spans + cache counters per query --------
    engine = model.to_serving(shards=2, cache_size=128)
    for _ in range(3):                      # repeats become cache hits
        engine.topk([0, 500, 1999], k=5)
    stats = engine.cache_stats()
    print(f"\nserved 3 identical batches: hits={stats.hits} "
          f"misses={stats.misses} hit_rate={stats.hit_rate:.2f}")

    # -- 3. stream a delta batch: repair-vs-refit bookkeeping --------
    updater = StreamingUpdater(graph, model)
    record = updater.apply_batch(add_src=[0, 1], add_dst=[1998, 1999])
    print(f"streamed one batch: escalated={record['escalated']} "
          f"touched={record['touched']} drift={record['drift']}")

    # -- 4. export: Prometheus text + the CLI-style JSON snapshot ----
    print("\n== Prometheus exposition (counters only; full text also "
          "has gauges + histogram buckets) ==")
    lines = [line for line in obs.to_prometheus_text().splitlines()
             if "_bucket{" not in line and not line.startswith("#")
             and ("_total" in line or "hit_rate" in line)]
    print("\n".join(lines[:12]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.json"
        obs.write_snapshot(path, extra={"example": "observability_tour"})
        snap = json.loads(path.read_text())
        print(f"\nsnapshot -> {len(snap['counters'])} counters, "
              f"{len(snap['gauges'])} gauges, "
              f"{len(snap['histograms'])} histograms, "
              f"{len(snap['traces'])} trace roots")

    obs.set_enabled(False)


if __name__ == "__main__":
    main()
