"""Cross-tier integration tests: instrumented paths feed the registry."""

import numpy as np
import pytest
from harness import run_storm

from repro import NRP, obs
from repro.graph import from_edges
from repro.ppr.kernels import spread_frontier
from repro.serving.engine import CacheStats
from repro.serving.router import ShardedQueryEngine
from repro.streaming import StreamingConfig, StreamingUpdater


@pytest.fixture(scope="module")
def nrp_model(small_undirected):
    return NRP(dim=16, svd="exact", seed=0).fit(small_undirected)


# ----------------------------------------------------------- serving tier
def test_sharded_query_storm_records_per_shard_spans(nrp_model):
    engine = ShardedQueryEngine(nrp_model, shards=3, cache_size=0)
    n = engine.num_nodes

    def work(tid, i, rng):
        ids, scores = engine.topk(rng.integers(0, n, size=4), k=5)
        assert ids.shape == (4, 5)

    with obs.capture() as reg:
        result = run_storm(work, threads=4, iterations=25,
                           metrics_label="sharded_topk")
    result.raise_errors()
    assert result.total_ops == 100
    # every shard's fan-out left a span-count series behind
    for shard in range(3):
        series = reg.counter("span_total", {"name": "router.shard",
                                            "shard": shard})
        assert series.value > 0
    assert reg.counter("router_fanout_total").value == 100 * 3
    assert reg.histogram("router_merge_seconds").count == 100
    assert reg.gauge("router_straggler_seconds").value >= 0.0
    # the storm's own op latency histogram has a sane tail
    storm_hist = reg.histogram("storm_op_seconds",
                               {"storm": "sharded_topk"})
    assert storm_hist.count == 100
    p99 = storm_hist.quantile(0.99)
    assert np.isfinite(p99) and 0.0 < p99 < 60.0


def test_engine_counters_match_cache_stats(nrp_model):
    engine = nrp_model.to_serving(cache_size=64)
    with obs.capture() as reg:
        engine.topk([1, 2, 3], k=5)      # three misses
        engine.topk([1, 2, 3], k=5)      # three hits
        stats = engine.cache_stats()
        labels = {"engine": engine.name}
        assert (reg.counter("serving_cache_hits_total", labels).value
                == stats.hits == 3)
        assert (reg.counter("serving_cache_misses_total", labels).value
                == stats.misses == 3)
        assert reg.histogram("serving_topk_seconds", labels).count == 2
        assert (reg.gauge("serving_cache_hit_rate", labels).value
                == pytest.approx(0.5))
        engine.score([0, 1], [2, 3])
        assert reg.histogram("serving_score_seconds", labels).count == 1


def test_engine_disabled_records_nothing(nrp_model):
    engine = nrp_model.to_serving(cache_size=8)
    assert not obs.enabled()
    engine.topk([0, 1], k=5)
    assert obs.get_registry().get("serving_topk_seconds",
                                  {"engine": engine.name}) is None


def test_cache_stats_zero_requests_hit_rate():
    stats = CacheStats()
    assert stats.hit_rate == 0.0          # not NaN, not ZeroDivisionError
    assert stats.as_dict() == {"hits": 0, "misses": 0, "capacity": 0,
                               "size": 0, "hit_rate": 0.0}


# ------------------------------------------------------------ kernel tier
def test_spread_frontier_counters(tiny_directed):
    with obs.capture() as reg:
        spread_frontier(tiny_directed, [0], np.ones((1, 3)))
        spread_frontier(tiny_directed, [0, 2, 3], np.ones((3, 3)))
    assert reg.counter("kernel_spread_frontier_total").value == 2
    rows = reg.histogram("kernel_spread_frontier_rows")
    assert rows.count == 2 and rows.sum == 4


# --------------------------------------------------------- streaming tier
def test_streaming_repair_and_refit_counters():
    rng = np.random.default_rng(8)
    # base arcs stay inside 0..29 so the delta targets (31, 32) are fresh
    g = from_edges(40, rng.integers(0, 20, 150), rng.integers(20, 30, 150),
                   directed=True)
    model = NRP(dim=8, ell2=2, svd="exact", seed=0, keep_factor_state=True)
    updater = StreamingUpdater(
        g, model, config=StreamingConfig(drift_threshold=None,
                                         max_staleness=None))
    with obs.capture() as reg:
        stats = updater.apply_batch(add_src=[0, 1], add_dst=[31, 32])
        assert not stats["escalated"]
        assert reg.counter("streaming_batches_total").value == 1
        assert reg.counter("streaming_repairs_total").value == 1
        assert reg.get("streaming_refits_total", {"reason": "staleness"}) \
            is None
        assert reg.histogram("streaming_batch_seconds").count == 1
        assert reg.histogram("streaming_touched_nodes").count == 1
        # the repair path leaves its span tree behind
        assert any(s.name == "streaming.repair" for s in reg.spans())


def test_streaming_staleness_escalation_counter():
    rng = np.random.default_rng(9)
    # base arcs stay inside 0..24 so the delta target (26,) is fresh
    g = from_edges(30, rng.integers(0, 15, 120), rng.integers(15, 25, 120),
                   directed=True)
    model = NRP(dim=8, ell2=2, svd="exact", seed=0, keep_factor_state=True)
    updater = StreamingUpdater(
        g, model, config=StreamingConfig(max_staleness=1e-9,
                                         drift_threshold=None))
    with obs.capture() as reg:
        stats = updater.apply_batch(add_src=[0], add_dst=[26])
        assert stats["escalated"]
        refits = reg.counter("streaming_refits_total",
                             {"reason": "staleness"})
        assert refits.value == 1
        assert reg.get("streaming_repairs_total") is None


# ----------------------------------------------------------------- fit tier
def test_fit_produces_phase_span_tree(small_undirected):
    with obs.capture() as reg:
        NRP(dim=8, ell2=1, svd="exact", seed=0).fit(small_undirected)
    [tree] = [s for s in reg.spans() if s.name == "nrp.fit"]
    child_names = {c.name for c in tree.children}
    assert "nrp.reweighting" in child_names
    # approx_ppr's phases nest somewhere under the fit root
    flat = tree.to_dict()
    text = str(flat)
    assert "approx_ppr.svd" in text
    assert "approx_ppr.propagation" in text
    assert tree.duration > 0.0
