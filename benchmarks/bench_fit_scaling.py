"""Fit-pipeline scaling: the default NRP.fit vs ``workers=4``.

At several graph sizes it times

* ``default`` — ``NRP(dim)`` with ``chunk_size=None, workers=1``;
* ``parallel`` — ``NRP(dim, workers=4)``: the same default chunk grid,
  with the row chunks of the SVD sketch, the power iterations and the
  reweighting precompute fanned out to four processes (capped at the
  usable cores).

For the default fit it also records where the time went: the seconds
of the ``approx_ppr.svd``, ``approx_ppr.propagation`` and
``nrp.reweighting`` spans that :mod:`repro.obs` records inside
``nrp.fit``. Alongside wall-clock it records the parity between the two
embeddings (the engine's contract is <= 1e-8 max abs diff) and writes
the whole trajectory to ``benchmarks/results/fit_scaling.json`` so CI
can archive it. The final assert pins the parity.

Runnable standalone (``python benchmarks/bench_fit_scaling.py``) or via
pytest (marked ``slow``).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import NRP, obs
from repro.bench import bench_scale, format_table
from repro.graph import powerlaw_community
from repro.parallel import available_cpus

try:
    from conftest import report
except ImportError:      # standalone script mode
    def report(name, block):
        print(block)

pytestmark = pytest.mark.slow

SIZES = (10_000, 25_000, 50_000)
DIM = 32
EDGE_FACTOR = 5
WORKERS = 4
PARITY_TOL = 1e-8
RESULTS_PATH = Path(__file__).parent / "results" / "fit_scaling.json"
#: fit phases timed by repro.obs spans -> the fit_scaling.json row key
PHASES = {"approx_ppr.svd": "svd_seconds",
          "approx_ppr.propagation": "propagation_seconds",
          "nrp.reweighting": "reweighting_seconds"}


def _measure(num_nodes: int, seed: int = 0) -> dict:
    graph, _ = powerlaw_community(num_nodes, EDGE_FACTOR * num_nodes,
                                  num_communities=16, seed=seed)
    with obs.capture(clear_after=True) as registry:
        start = time.perf_counter()
        default_model = NRP(dim=DIM, seed=seed).fit(graph)
        default_seconds = time.perf_counter() - start
        phases = {key: registry.get("span_seconds", {"name": name}).sum
                  for name, key in PHASES.items()}

    start = time.perf_counter()
    parallel_model = NRP(dim=DIM, seed=seed, workers=WORKERS).fit(graph)
    parallel_seconds = time.perf_counter() - start

    max_diff = max(
        float(np.abs(default_model.forward_ - parallel_model.forward_).max()),
        float(np.abs(default_model.backward_
                     - parallel_model.backward_).max()))
    return {"nodes": graph.num_nodes, "edges": graph.num_edges,
            "default_seconds": round(default_seconds, 3),
            **{key: round(value, 3) for key, value in phases.items()},
            "parallel_seconds": round(parallel_seconds, 3),
            "speedup": round(default_seconds / parallel_seconds, 2),
            "max_abs_diff": max_diff}


def run_scaling(sizes=SIZES) -> list[dict]:
    rows = [_measure(n) for n in sizes]
    record = {"dim": DIM, "edge_factor": EDGE_FACTOR, "workers": WORKERS,
              "available_cpus": available_cpus(), "rows": rows}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")

    title = (f"NRP.fit scaling: default vs workers={WORKERS} "
             f"(dim={DIM}, {available_cpus()} usable cores)")
    table = format_table(
        ["nodes", "edges", "default fit (s)", "svd (s)", "propagation (s)",
         "reweighting (s)", f"workers={WORKERS} fit (s)", "speedup",
         "max |diff|"],
        [[f"{r['nodes']:,}", f"{r['edges']:,}",
          f"{r['default_seconds']:.2f}", f"{r['svd_seconds']:.2f}",
          f"{r['propagation_seconds']:.2f}",
          f"{r['reweighting_seconds']:.2f}", f"{r['parallel_seconds']:.2f}",
          f"{r['speedup']:.2f}x", f"{r['max_abs_diff']:.1e}"]
         for r in rows])
    report("fit_scaling", title + "\n" + table)
    return rows


def test_fit_scaling():
    sizes = tuple(max(2_000, int(n * bench_scale())) for n in SIZES)
    for row in run_scaling(sizes):
        assert row["max_abs_diff"] <= PARITY_TOL


if __name__ == "__main__":
    for row in run_scaling():
        print(json.dumps(row))
