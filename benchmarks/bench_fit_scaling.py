"""Fit-pipeline scaling: ``NRP(dim).fit`` at several graph sizes.

For each size it records the wall-clock of one fit and where the time
went: the seconds of the ``approx_ppr.svd``, ``approx_ppr.propagation``
and ``nrp.reweighting`` spans that :mod:`repro.obs` records inside
``nrp.fit``. The whole trajectory goes to
``benchmarks/results/fit_scaling.json`` so CI can archive it and
``tools/bench_compare.py`` can compare it with a baseline.

Runnable standalone (``python benchmarks/bench_fit_scaling.py``) or via
pytest (marked ``slow``).
"""

import json
import time
from pathlib import Path

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
        NRP(dim=DIM, seed=seed).fit(graph)
        default_seconds = time.perf_counter() - start
        phases = {key: registry.get("span_seconds", {"name": name}).sum
                  for name, key in PHASES.items()}
    return {"nodes": graph.num_nodes, "edges": graph.num_edges,
            "default_seconds": round(default_seconds, 3),
            **{key: round(value, 3) for key, value in phases.items()}}


def run_scaling(sizes=SIZES) -> list[dict]:
    rows = [_measure(n) for n in sizes]
    record = {"dim": DIM, "edge_factor": EDGE_FACTOR,
              "available_cpus": available_cpus(), "rows": rows}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")

    title = f"NRP.fit scaling (dim={DIM}, {available_cpus()} usable cores)"
    table = format_table(
        ["nodes", "edges", "fit (s)", "svd (s)", "propagation (s)",
         "reweighting (s)"],
        [[f"{r['nodes']:,}", f"{r['edges']:,}",
          f"{r['default_seconds']:.2f}", f"{r['svd_seconds']:.2f}",
          f"{r['propagation_seconds']:.2f}",
          f"{r['reweighting_seconds']:.2f}"]
         for r in rows])
    report("fit_scaling", title + "\n" + table)
    return rows


def test_fit_scaling():
    sizes = tuple(max(2_000, int(n * bench_scale())) for n in SIZES)
    for row in run_scaling(sizes):
        phases = [row[key] for key in PHASES.values()]
        # every phase span was recorded and nests inside the fit (each
        # value is rounded to the millisecond)
        assert min(phases) > 0
        assert sum(phases) <= row["default_seconds"] + 0.002


if __name__ == "__main__":
    for row in run_scaling():
        print(json.dumps(row))
