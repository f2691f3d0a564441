"""Experiment harness shared by the per-figure benchmark scripts.

Centralizes three things the figures repeat: (1) the bench scale knob
(``REPRO_BENCH_SCALE`` env var), (2) per-method constructor overrides
that keep the slow walk/neural baselines tractable on the larger
analogues, and (3) fit-and-evaluate helpers that return both quality
and wall-clock time.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..baselines import make_embedder
from ..datasets import Dataset, load_dataset
from ..embedder import Embedder
from ..graph import Graph, link_prediction_split
from ..graph.splits import LinkPredictionSplit
from ..ml import auc_score
from ..rng import spawn_rngs
from ..tasks import evaluate_link_prediction, score_test_pairs

__all__ = ["bench_scale", "load_bench_dataset", "BENCH_OVERRIDES",
           "build_method", "FitResult", "fit_timed", "link_prediction_auc",
           "evolving_auc", "SMALL_METHOD_SET", "FULL_METHOD_SET"]

#: Constructor overrides applied by the bench harness. Two kinds:
#: (1) corpus-size reductions so the expensive walk/neural baselines
#: finish in bench time (the paper's point that they are slow is made by
#: Fig. 7's timing, which uses the same overrides for fairness), and
#: (2) scale calibrations for absolute hyperparameters: the paper tuned
#: lambda = 10 (NRP) and delta = 1e-5 (STRAP) on graphs 100-1000x larger
#: than our laptop analogues, so the regularizer shrinks and the PPR
#: threshold grows by the corresponding factor.
BENCH_OVERRIDES: dict[str, dict] = {
    "nrp": {"lam": 0.1},
    "strap": {"delta": 1e-4},
    "deepwalk": {"walks_per_node": 4, "walk_length": 20, "epochs": 1},
    "node2vec": {"walks_per_node": 4, "walk_length": 20, "epochs": 1},
    "line": {"samples_per_edge": 20},
    "app": {"samples_per_node": 200, "epochs": 3, "lr": 0.05},
    "verse": {"samples_per_node": 200, "epochs": 3, "lr": 0.05},
    "dngr": {"epochs": 8},
    "graphgan": {"rounds": 5},
}

#: Methods cheap enough for every figure at any analogue size.
SMALL_METHOD_SET = ("nrp", "approxppr", "arope", "randne", "prone", "strap")
#: The full roster, used on the small analogues (Figs. 4-6 style).
FULL_METHOD_SET = ("nrp", "approxppr", "strap", "app", "verse", "arope",
                   "randne", "prone", "netmf", "netsmf", "deepwalk", "line",
                   "node2vec", "pbg", "dngr", "drne", "graphgan", "ga",
                   "rare", "nethiex", "graphwave", "spectral")


def bench_scale(default: float = 1.0) -> float:
    """The global bench scale from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", default))
    except ValueError:
        return default


def load_bench_dataset(name: str) -> Dataset:
    """Dataset at the harness scale."""
    return load_dataset(name, scale=bench_scale())


def build_method(name: str, dim: int, *, seed: int = 0,
                 **extra) -> Embedder:
    """Instantiate a method with bench overrides + call-site extras."""
    kwargs = dict(BENCH_OVERRIDES.get(name.lower(), {}))
    kwargs.update(extra)
    return make_embedder(name, dim, seed=seed, **kwargs)


@dataclass(frozen=True)
class FitResult:
    """An embedder fitted on a graph plus its wall-clock cost."""

    embedder: Embedder
    seconds: float


def fit_timed(embedder: Embedder, graph: Graph) -> FitResult:
    """Fit and report wall-clock seconds (paper Fig. 7/10/11 measure)."""
    start = time.perf_counter()
    with obs.trace("bench.fit", method=getattr(embedder, "name",
                                               type(embedder).__name__)):
        embedder.fit(graph)
    seconds = time.perf_counter() - start
    if obs.enabled():
        obs.get_registry().histogram(
            "bench_fit_seconds",
            {"method": getattr(embedder, "name",
                               type(embedder).__name__)}).observe(seconds)
    return FitResult(embedder, seconds)


def link_prediction_auc(method: str, dataset: Dataset, dim: int, *,
                        seed: int = 0, test_fraction: float = 0.3,
                        ) -> tuple[float, float]:
    """(AUC, fit seconds) for one method on one dataset's LP split.

    The split is seeded by ``seed`` and the CRC-32 of the dataset's name,
    so it is the same in every process (``hash`` of a ``str`` is salted
    per process).
    """
    split_rng, eval_rng = spawn_rngs(
        seed + zlib.crc32(dataset.name.encode()) % 1000, 2)
    split = link_prediction_split(dataset.graph, test_fraction=test_fraction,
                                  seed=split_rng)
    fitted = fit_timed(build_method(method, dim, seed=seed),
                       split.train_graph)
    result = evaluate_link_prediction(fitted.embedder, split, seed=eval_rng)
    return result.auc, fitted.seconds


def evolving_auc(method: str, old_graph: Graph, new_src: np.ndarray,
                 new_dst: np.ndarray, dim: int, *, seed: int = 0) -> float:
    """Figure-9 protocol: embed E_old, rank E_new against non-edges."""
    from ..graph import sample_non_edges    # local import to avoid cycles

    neg_rng, eval_rng = spawn_rngs(seed, 2)
    held = new_src * np.int64(old_graph.num_nodes) + new_dst
    neg_src, neg_dst = sample_non_edges(old_graph, len(new_src),
                                        seed=neg_rng,
                                        forbidden_keys=np.sort(held))
    fitted = fit_timed(build_method(method, 64, seed=seed), old_graph)
    split = LinkPredictionSplit(old_graph, new_src, new_dst,
                                neg_src, neg_dst)
    scores, labels = score_test_pairs(fitted.embedder, split, seed=eval_rng)
    return auc_score(labels, scores)
