"""Observability tax on the hot serving path (PR-6 acceptance).

Serves the same Zipf-skewed top-k query mix (caches off) through a
2-way sharded engine twice per round: once with :mod:`repro.obs`
collection disabled — the default, where every instrumented call site
reduces to a single branch — and once with full metrics + span
collection enabled.

Measuring the tax honestly on a small shared CI runner takes some
care: wall-clock legs on a throttled container swing 2x for reasons
that have nothing to do with instrumentation. So each leg is measured
in **process CPU time** (work done, immune to being scheduled out),
the two modes run back-to-back within every round with the order
flipped round to round, and the overhead is the **median of the
per-round enabled/disabled cost ratios**: the two legs of a round
share whatever thermal/frequency state the machine is in, so slow
drift cancels within each pair instead of biasing one mode.

Acceptance: enabled-mode CPU cost stays within ``MAX_OVERHEAD`` (3%)
of disabled mode. Disabled mode *is* the baseline — the guard branch
is the only instruction the instrumentation adds there, which is why
no uninstrumented build is needed for comparison.

Artifacts for CI's slow job:

* ``benchmarks/results/obs_overhead.json`` — per-round leg costs,
  medians, measured overhead;
* ``benchmarks/results/obs_snapshot.json`` / ``.prom`` — the metrics
  snapshot collected during the final enabled leg, so the artifact
  doubles as a living example of the exporter formats.

Runnable standalone (``python benchmarks/bench_obs_overhead.py``) or
via pytest (marked ``slow``).
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tests" / "stress"))
from harness import run_storm                               # noqa: E402

from repro import obs                                       # noqa: E402
from repro.bench import bench_scale, format_table           # noqa: E402
from repro.io import EmbeddingBundle                        # noqa: E402
from repro.parallel import available_cpus                   # noqa: E402
from repro.serving import ShardedQueryEngine                # noqa: E402

try:
    from conftest import report
except ImportError:      # standalone script mode
    def report(name, block):
        print(block)

pytestmark = pytest.mark.slow

NUM_NODES = 20_000
DIM = 64
K = 10
BATCH = 64
SHARDS = 2
OPS_PER_LEG = 100
ROUNDS = 10
MAX_OVERHEAD = 0.03
RESULTS_DIR = Path(__file__).parent / "results"


def _database(n: int) -> EmbeddingBundle:
    rng = np.random.default_rng(0)
    return EmbeddingBundle(
        name="obs-bench", directional=False,
        embedding=rng.standard_normal((n, DIM)) / np.sqrt(DIM))


def _zipf_batches(n: int, batches: int) -> np.ndarray:
    """Skewed query traffic: a few hot sources dominate, like prod."""
    rng = np.random.default_rng(1)
    ranks = rng.zipf(1.3, size=(batches, BATCH))
    return ((ranks - 1) % n).astype(np.int64)


def _leg_cpu_seconds(engine, batches: np.ndarray, ops: int) -> float:
    """One measured leg: fixed op count, returns process CPU seconds.

    The timed loop runs inline rather than through ``run_storm`` — the
    harness spawns fresh reader threads per call, and on a 1-2 CPU
    runner that scheduler churn swamps the few-percent signal this
    bench exists to resolve. The storm harness still drives the
    (untimed) metric-population pass below and the obs integration
    tests.
    """
    num_batches = len(batches)
    start = time.process_time()
    for i in range(ops):
        ids, _ = engine.topk(batches[i % num_batches], K)
        assert ids.shape == (BATCH, K)
    return time.process_time() - start


def run_bench(scale: float | None = None) -> dict:
    scale = bench_scale() if scale is None else scale
    n = max(1000, int(NUM_NODES * scale))
    engine = ShardedQueryEngine(_database(n), shards=SHARDS, cache_size=0)
    batches = _zipf_batches(n, 128)
    ops = max(10, int(OPS_PER_LEG * min(1.0, scale)))

    # warm both code paths (thread pools, numpy buffers) before timing
    prev = obs.set_enabled(False)
    _leg_cpu_seconds(engine, batches, ops // 2)
    obs.set_enabled(True)
    _leg_cpu_seconds(engine, batches, ops // 2)

    legs = {"disabled": [], "enabled": []}

    def leg(mode: str) -> None:
        obs.set_enabled(mode == "enabled")
        legs[mode].append(_leg_cpu_seconds(engine, batches, ops))

    try:
        for round_idx in range(ROUNDS):
            # flip which mode goes first so slow drift (frequency
            # scaling, cache pressure) cancels instead of biasing
            first, second = (("disabled", "enabled") if round_idx % 2 == 0
                             else ("enabled", "disabled"))
            obs.reset()
            leg(first)
            leg(second)
        # round out the snapshot with the non-serving tiers (untimed:
        # a frontier spread and a cached engine, so the artifact shows
        # kernel counters and a cache hit rate too)
        obs.set_enabled(True)
        from repro.graph import powerlaw_community
        from repro.ppr import spread_frontier
        spread_graph, _ = powerlaw_community(2000, 12000,
                                             num_communities=4, seed=2)
        spread_frontier(spread_graph, [0, 1, 2, 3], np.ones((4, DIM)))
        cached = ShardedQueryEngine(_database(n), shards=SHARDS,
                                    cache_size=256)

        def storm_work(tid, i, rng):
            cached.topk(batches[i % 4][:8], K)   # repeats become hits

        run_storm(storm_work, threads=2, iterations=10,
                  metrics_label="obs_bench").raise_errors()
        cached.cache_stats()       # publishes the hit-rate gauge
        # export the final enabled leg's series as living format examples
        RESULTS_DIR.mkdir(exist_ok=True)
        obs.write_snapshot(RESULTS_DIR / "obs_snapshot.json",
                           extra={"bench": "obs_overhead"})
        (RESULTS_DIR / "obs_snapshot.prom").write_text(
            obs.to_prometheus_text(), encoding="utf-8")
    finally:
        obs.set_enabled(prev)
        obs.reset()

    median = {mode: float(np.median(vals)) for mode, vals in legs.items()}
    ratios = [e / d for e, d in zip(legs["enabled"], legs["disabled"])]
    overhead = float(np.median(ratios)) - 1.0

    record = {
        "num_nodes": n, "dim": DIM, "k": K, "batch": BATCH,
        "shards": SHARDS, "ops_per_leg": ops, "rounds": ROUNDS,
        "scale": scale, "cpus": available_cpus(),
        "cpu_seconds": {mode: [round(v, 4) for v in vals]
                        for mode, vals in legs.items()},
        "median_cpu_seconds": {mode: round(v, 4)
                               for mode, v in median.items()},
        "round_ratios": [round(r, 4) for r in ratios],
        "overhead": round(overhead, 4),
        "max_overhead": MAX_OVERHEAD,
    }
    (RESULTS_DIR / "obs_overhead.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    title = (f"Observability overhead on sharded top-k "
             f"(n={n:,}, dim={DIM}, batch={BATCH}, {SHARDS} shards, "
             f"{ops} ops/leg, median paired ratio over {ROUNDS} "
             f"interleaved rounds)")
    table = format_table(
        ["mode", "median CPU s/leg", "overhead"],
        [["obs disabled", f"{median['disabled']:.3f}", "baseline"],
         ["obs enabled", f"{median['enabled']:.3f}",
          f"{overhead * 100:+.2f}%"]])
    report("obs_overhead", title + "\n" + table)
    return record


def test_obs_overhead_under_budget():
    record = run_bench()
    assert record["median_cpu_seconds"]["enabled"] > 0
    assert record["overhead"] < MAX_OVERHEAD, (
        f"enabled-mode observability costs "
        f"{record['overhead'] * 100:.2f}% CPU "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    # the enabled legs actually collected: snapshot must show the
    # serving/router series, otherwise the bench measured nothing
    snap = json.loads((RESULTS_DIR / "obs_snapshot.json").read_text())
    counters = {c["name"] for c in snap["counters"]}
    assert {"router_fanout_total", "kernel_spread_frontier_total",
            "serving_cache_hits_total"} <= counters
    [topk] = [h for h in snap["histograms"]
              if h["name"] == "serving_topk_seconds"]
    assert topk["p50"] is not None and topk["p99"] is not None
    prom = (RESULTS_DIR / "obs_snapshot.prom").read_text()
    assert "serving_cache_hit_rate" in prom
    assert 'span_total{name="router.shard"' in prom


if __name__ == "__main__":
    print(json.dumps(run_bench(), indent=2))
