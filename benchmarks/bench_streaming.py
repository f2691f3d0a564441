"""Streaming updates vs. per-batch full refits (the PR-3 acceptance).

Replays ``vk_sim``'s future edges (paper Appendix C / Figure 9) in
``NUM_BATCHES`` timestamped delta batches through two pipelines that
both end each batch with a published serving store:

* ``streaming`` — one cold fit, then
  :class:`repro.streaming.StreamingUpdater` per batch: delta-log
  compaction, local incremental PPR sketch repair, warm reweighting,
  versioned publish;
* ``full refit`` — the status quo ante: after every batch, a cold
  ``NRP.fit`` on the accumulated graph plus a store export.

Alongside wall-clock it measures final-state quality: mean top-10
neighbor overlap and pair-score correlation of the streaming model
against a cold refit on the *final* graph. The asserts pin the
acceptance criteria at the full ``vk_sim`` scale (6k nodes / 120k old
edges): >= 3x end-to-end speedup, >= 0.95 top-10 overlap. The whole
trajectory lands in ``benchmarks/results/streaming.json`` for CI to
archive next to the fit-scaling artifact.

Runnable standalone (``python benchmarks/bench_streaming.py``) or via
pytest (marked ``slow``).
"""

import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import NRP
from repro.bench import bench_scale, format_table
from repro.datasets import load_evolving_dataset
from repro.io import export_store
from repro.parallel import available_cpus
from repro.streaming import StreamingConfig, StreamingUpdater

try:
    from conftest import report
except ImportError:      # standalone script mode
    def report(name, block):
        print(block)

pytestmark = pytest.mark.slow

DATASET = "vk_sim"
NUM_BATCHES = 10
DIM = 64
ELL2 = 10                    # the paper's default reweighting depth
SEED = 0
TOPK = 10
OVERLAP_SAMPLE = 1500
RESULTS_PATH = Path(__file__).parent / "results" / "streaming.json"

MODEL_KW = dict(dim=DIM, ell2=ELL2, seed=SEED)
# One warm sweep pair per batch (drift stays ~1e-2 on this stream) and a
# 1e-6 residue threshold: basis staleness dominates the error budget at
# ~1e-2 score scale, so pushing residues below 1e-6 buys nothing.
STREAM_CONFIG = StreamingConfig(warm_epochs=1, refresh_tol=1e-6)


def _overlap_and_corr(model_a, model_b, num_nodes: int) -> tuple[float, float]:
    rng = np.random.default_rng(SEED)
    nodes = rng.choice(num_nodes, size=min(OVERLAP_SAMPLE, num_nodes),
                       replace=False)
    ea = model_a.to_serving(cache_size=0)
    eb = model_b.to_serving(cache_size=0)
    ids_a, _ = ea.topk(nodes, TOPK)
    ids_b, _ = eb.topk(nodes, TOPK)
    overlap = float(np.mean([
        len(set(a.tolist()) & set(b.tolist())) / TOPK
        for a, b in zip(ids_a, ids_b)]))
    src = rng.integers(0, num_nodes, 4000)
    dst = rng.integers(0, num_nodes, 4000)
    corr = float(np.corrcoef(model_a.score_pairs(src, dst),
                             model_b.score_pairs(src, dst))[0, 1])
    return overlap, corr


def run_streaming(scale: float | None = None) -> dict:
    scale = bench_scale() if scale is None else scale
    data = load_evolving_dataset(DATASET, scale=scale)
    graph = data.old_graph
    batch_size = math.ceil(data.num_new_edges / NUM_BATCHES)
    batches = list(data.delta_batches(batch_size))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # ---------------- streaming path -----------------------------
        model = NRP(keep_factor_state=True, **MODEL_KW)
        start = time.perf_counter()
        updater = StreamingUpdater(graph, model, config=STREAM_CONFIG)
        stream_fit_seconds = time.perf_counter() - start
        batch_records = []
        start = time.perf_counter()
        for batch in batches:
            rec = updater.apply_batch(batch.src, batch.dst)
            updater.publish(tmp / "stream_store", keep=2)
            batch_records.append(rec)
        stream_seconds = time.perf_counter() - start

        # ---------------- per-batch full refits ----------------------
        refit_seconds = []
        cold = None
        start_all = time.perf_counter()
        for i in range(len(batches)):
            start = time.perf_counter()
            # what a no-streaming pipeline does: rebuild the accumulated
            # graph, refit from scratch, re-export the store
            graph_i = _accumulate(graph, batches[:i + 1])
            cold = NRP(**MODEL_KW).fit(graph_i)
            export_store(cold, tmp / "cold_store")
            refit_seconds.append(time.perf_counter() - start)
        full_seconds = time.perf_counter() - start_all

    # ---------------- final-state quality ----------------------------
    final_graph = updater.graph
    assert cold is not None
    assert final_graph.num_edges == graph.num_edges + sum(
        len(b.src) for b in batches)
    overlap, corr = _overlap_and_corr(updater.model, cold,
                                      final_graph.num_nodes)

    speedup = full_seconds / max(stream_seconds, 1e-9)
    record = {
        "dataset": DATASET, "scale": scale, "dim": DIM, "ell2": ELL2,
        "cpus": available_cpus(),
        "num_nodes": graph.num_nodes, "old_edges": graph.num_edges,
        "new_edges": data.num_new_edges, "num_batches": len(batches),
        "batch_size": batch_size,
        "stream_fit_seconds": round(stream_fit_seconds, 3),
        "stream_seconds": round(stream_seconds, 3),
        "full_refit_seconds": round(full_seconds, 3),
        "per_batch_refit_seconds": [round(s, 3) for s in refit_seconds],
        "speedup": round(speedup, 2),
        "escalations": updater.num_escalations,
        "topk_overlap": round(overlap, 4),
        "score_corr": round(corr, 4),
        "batches": batch_records,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")

    rows = [[f"{r['batch']}", f"{r['arc_deltas']}", f"{r['touched']}",
             f"{r['sweeps']}", "yes" if r["escalated"] else "no",
             f"{r['seconds']:.3f}", f"{refit_seconds[i]:.3f}"]
            for i, r in enumerate(batch_records)]
    title = (f"Streaming updates on {DATASET} "
             f"(n={graph.num_nodes:,}, |E_old|={graph.num_edges:,}, "
             f"|E_new|={data.num_new_edges:,}, {len(batches)} batches, "
             f"dim={DIM})")
    summary = (f"streaming {stream_seconds:.2f}s vs per-batch refits "
               f"{full_seconds:.2f}s -> {speedup:.2f}x | top-{TOPK} "
               f"overlap {overlap:.3f}, score corr {corr:.3f}, "
               f"{updater.num_escalations} escalations")
    table = format_table(
        ["batch", "deltas", "touched", "sweeps", "escalated",
         "stream (s)", "refit (s)"], rows)
    report("streaming", title + "\n" + table + "\n" + summary)
    return record


def _accumulate(base, batches):
    """The graph after applying ``batches`` to ``base`` (cold pipeline)."""
    from repro.graph import add_arcs
    graph = base
    for batch in batches:
        graph = add_arcs(graph, batch.src, batch.dst)
    return graph


def test_streaming_vs_full_refit():
    record = run_streaming()
    if record["num_nodes"] >= 6000 and record["num_batches"] >= 10:
        # acceptance criteria at the full vk_sim scale
        assert record["speedup"] >= 3.0, (
            f"streaming only {record['speedup']}x faster than per-batch "
            f"full refits")
        assert record["topk_overlap"] >= 0.95, (
            f"top-10 overlap {record['topk_overlap']} < 0.95 against the "
            f"cold refit on the final graph")


if __name__ == "__main__":
    print(json.dumps(run_streaming(), indent=2))
