"""Tests for the bench harness plus cross-module integration checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench import (BENCH_OVERRIDES, build_method, evolving_auc,
                         fit_timed, format_series_block, format_table,
                         link_prediction_auc)
from repro.core import NRP
from repro.datasets import load_dataset, load_evolving_dataset

# full fit-and-evaluate pipelines over several methods: the heavyweight
# end of the suite, excluded from the tier-1 fast job
pytestmark = pytest.mark.slow


# ---------------------------------------------------------------- tables
def test_format_table_alignment():
    table = format_table(["method", "auc"], [["nrp", 0.9123],
                                             ["arope", 0.8]])
    lines = table.split("\n")
    assert lines[0].startswith("method")
    assert "0.9123" in table and "0.8000" in table
    assert set(lines[1]) <= {"-", " "}


def test_format_series_block():
    block = format_series_block("Figure 4 (wiki_sim)", "k", [16, 32],
                                {"NRP": [0.9, 0.91], "AROPE": [0.88, 0.89]})
    assert "Figure 4 (wiki_sim)" in block
    assert "NRP" in block and "16" in block


# --------------------------------------------------------------- harness
def test_build_method_applies_overrides():
    m = build_method("deepwalk", 16)
    assert m.walks_per_node == BENCH_OVERRIDES["deepwalk"]["walks_per_node"]
    m2 = build_method("deepwalk", 16, walks_per_node=9)
    assert m2.walks_per_node == 9


def test_build_method_nrp_scale_calibration():
    m = build_method("nrp", 16)
    assert m.config.lam == pytest.approx(BENCH_OVERRIDES["nrp"]["lam"])


#: prints a digest of the held-out pairs ``link_prediction_auc`` draws
#: for a small dataset, and the AUC it reads on them
_SPLIT_DIGEST = """
import zlib
import numpy as np
from repro.bench import harness
from repro.datasets import load_dataset

splits = []
make_split = harness.link_prediction_split
harness.link_prediction_split = (
    lambda *args, **kwargs: splits.append(make_split(*args, **kwargs))
    or splits[-1])
auc, _ = harness.link_prediction_auc(
    "approxppr", load_dataset("wiki_sim", scale=0.05), 8)
src, dst, labels = splits[0].test_pairs
print(zlib.crc32(np.stack([src, dst, labels]).tobytes()), repr(auc))
"""


def test_link_prediction_split_is_the_same_in_every_process():
    """The split seed must not come from ``hash`` of the dataset name:
    Python salts ``str`` hashes per process (``PYTHONHASHSEED``)."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": src_root}
        done = subprocess.run([sys.executable, "-c", _SPLIT_DIGEST],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        outputs.append(done.stdout)
    assert outputs[0].strip()
    assert outputs[0] == outputs[1]


def test_fit_timed_reports_positive_time(small_undirected):
    result = fit_timed(NRP(dim=8, svd="exact", seed=0), small_undirected)
    assert result.seconds > 0
    assert result.embedder.forward_ is not None


# ---------------------------------------------------------- integration
def test_link_prediction_auc_pipeline():
    data = load_dataset("wiki_sim", scale=0.15)
    auc, seconds = link_prediction_auc("nrp", data, 32, seed=0)
    assert auc > 0.7
    assert seconds > 0.0


def test_nrp_beats_approxppr_on_link_prediction():
    """The paper's core ablation: reweighting improves LP AUC."""
    data = load_dataset("blog_sim", scale=0.15)
    auc_nrp, _ = link_prediction_auc("nrp", data, 64, seed=0)
    auc_base, _ = link_prediction_auc("approxppr", data, 64, seed=0)
    assert auc_nrp > auc_base - 0.005      # ties allowed, regressions not


def test_evolving_auc_pipeline():
    data = load_evolving_dataset("vk_sim", scale=0.2)
    auc = evolving_auc("nrp", data.old_graph, data.new_src, data.new_dst,
                       32, seed=0)
    assert auc > 0.6


def test_full_method_list_importable():
    from repro.bench import FULL_METHOD_SET, SMALL_METHOD_SET
    from repro.baselines import available_methods
    known = set(available_methods())
    assert set(m for m in FULL_METHOD_SET) <= known
    assert set(SMALL_METHOD_SET) <= known


def test_embedding_dimensions_consistent_across_methods():
    data = load_dataset("wiki_sim", scale=0.1)
    for name in ("nrp", "approxppr", "strap"):
        model = build_method(name, 32, seed=0).fit(data.graph)
        assert model.node_features().shape == (data.graph.num_nodes, 32)
