"""Tests for the 18 competitor methods: registry, interface contract,
and method-specific behaviors."""

import numpy as np
import pytest

from repro.baselines import (BASELINE_REGISTRY, STRAP, AROPE,
                             available_methods, make_embedder,
                             pruned_ppr_matrix)
from repro.errors import ParameterError, ReproError
from repro.ppr import ppr_matrix_dense

#: every registered method, fitted once per session on the shared graphs
CHEAP_METHODS = ["arope", "randne", "prone", "strap", "spectral", "nethiex",
                 "netmf", "netsmf", "drne", "ga", "graphwave", "rare",
                 "app", "verse", "pbg", "line", "graphgan", "dngr"]
WALK_METHODS = ["deepwalk", "node2vec"]

# fits the entire 18-method roster: the heavyweight baseline suite,
# excluded from the tier-1 fast job
pytestmark = pytest.mark.slow


def test_registry_contains_paper_roster():
    expect = {"arope", "randne", "netmf", "netsmf", "prone", "strap",
              "deepwalk", "line", "node2vec", "pbg", "app", "verse",
              "dngr", "drne", "graphgan", "ga", "rare", "nethiex",
              "graphwave", "spectral"}
    assert expect <= set(BASELINE_REGISTRY)


def test_available_methods_includes_core():
    methods = available_methods()
    assert "nrp" in methods and "approxppr" in methods


def test_make_embedder_unknown_name():
    with pytest.raises(ParameterError):
        make_embedder("word2vec-classic")


def test_make_embedder_passes_overrides():
    m = make_embedder("deepwalk", 16, walks_per_node=2)
    assert m.walks_per_node == 2


@pytest.mark.parametrize("name", CHEAP_METHODS)
def test_interface_contract_undirected(name, small_undirected):
    """Every method: fits, finite features of the right shape, scores."""
    kwargs = {"samples_per_node": 10} if name in ("app", "verse") else {}
    if name == "deepwalk":
        kwargs = {"walks_per_node": 2, "walk_length": 10}
    model = make_embedder(name, 16, seed=0, **kwargs).fit(small_undirected)
    feats = model.node_features()
    assert feats.shape == (small_undirected.num_nodes, 16)
    assert np.all(np.isfinite(feats))
    scores = model.score_pairs([0, 1, 2], [3, 4, 5])
    assert scores.shape == (3,)
    assert np.all(np.isfinite(scores))


@pytest.mark.parametrize("name", WALK_METHODS)
def test_walk_methods_contract(name, small_undirected):
    model = make_embedder(name, 16, seed=0, walks_per_node=2,
                          walk_length=10, epochs=1).fit(small_undirected)
    feats = model.node_features()
    assert feats.shape == (small_undirected.num_nodes, 16)
    assert np.all(np.isfinite(feats))


@pytest.mark.parametrize("name", ["strap", "app", "ga"])
def test_directional_methods_emit_two_sides(name, small_directed):
    kwargs = {"samples_per_node": 10} if name == "app" else {}
    model = make_embedder(name, 16, seed=0, **kwargs).fit(small_directed)
    assert model.directional
    assert model.forward_.shape == (small_directed.num_nodes, 8)
    assert model.backward_.shape == (small_directed.num_nodes, 8)


def test_score_before_fit_raises():
    with pytest.raises(ReproError):
        make_embedder("arope", 8).score_pairs([0], [1])


def test_lp_scoring_declarations():
    assert make_embedder("arope", 8).lp_scoring == "inner"
    assert make_embedder("deepwalk", 8).lp_scoring == "edge_features"
    assert make_embedder("verse", 8).lp_scoring == "auto"
    assert make_embedder("pbg", 8).lp_scoring == "auto"


# ----------------------------------------------------------------- STRAP
def test_pruned_ppr_matrix_close_to_exact(fig1):
    """Close to exact PPR, never above it: pruning only drops mass."""
    pi = ppr_matrix_dense(fig1, 0.15)
    for delta in (1e-7, 1e-6):
        approx = pruned_ppr_matrix(fig1, 0.15, delta=delta).toarray()
        assert np.abs(pi - approx).max() < 1e-4
        assert np.all(approx <= pi + 1e-12)


def test_pruned_ppr_matrix_threshold(fig1):
    delta = 1e-2
    approx = pruned_ppr_matrix(fig1, 0.15, delta=delta)
    assert approx.data.min() >= delta / 2.0


def test_strap_uses_transpose_proximity(small_directed):
    """STRAP's scores must rank high-transpose-proximity pairs first."""
    model = STRAP(dim=32, delta=1e-5, seed=0).fit(small_directed)
    pi = ppr_matrix_dense(small_directed, 0.15)
    target = pi + pi.T
    n = small_directed.num_nodes
    rng = np.random.default_rng(0)
    idx = rng.integers(0, n, size=(800, 2))
    scores = model.score_pairs(idx[:, 0], idx[:, 1])
    truth = np.array([target[i, j] for i, j in idx])
    # the top-decile target pairs must receive clearly higher scores
    hi = truth >= np.quantile(truth, 0.9)
    assert scores[hi].mean() > scores[~hi].mean() + 1e-4
    # and the linear correlation should be decidedly positive
    assert np.corrcoef(scores, truth)[0, 1] > 0.4


def test_strap_rejects_bad_delta(fig1):
    with pytest.raises(ParameterError):
        pruned_ppr_matrix(fig1, 0.15, delta=0.0)


@pytest.mark.parametrize("removed", ["solver", "kernel"])
def test_strap_rejects_removed_arguments(removed):
    """One PPR builder: the push solver and its kernel knob are gone."""
    with pytest.raises(TypeError, match=removed):
        STRAP(dim=8, **{removed: "push"})


# ----------------------------------------------------------------- AROPE
def test_arope_order_weights_change_embedding(small_undirected):
    a = AROPE(dim=16, order_weights=(1.0,), seed=0).fit(small_undirected)
    b = AROPE(dim=16, order_weights=(0.0, 0.0, 1.0),
              seed=0).fit(small_undirected)
    assert not np.allclose(a.embedding_, b.embedding_)


def test_arope_first_order_matches_eigsh(small_undirected):
    """With weights (1,), AROPE reduces to adjacency eigen-embedding."""
    model = AROPE(dim=8, order_weights=(1.0,), seed=0).fit(small_undirected)
    recon = model.embedding_ @ model.embedding_.T
    a = small_undirected.adjacency().toarray()
    # reconstruction error no worse than twice the optimal rank-8 error
    from repro.linalg import sparse_eigsh
    vals, vecs = sparse_eigsh(small_undirected.adjacency(), 8, which="LM")
    best = vecs @ np.diag(vals) @ vecs.T
    assert (np.linalg.norm(a - np.abs(recon) * np.sign(recon), "fro")
            <= 2.0 * np.linalg.norm(a - best, "fro") + 1e-6)


def test_arope_rejects_empty_weights():
    with pytest.raises(ParameterError):
        AROPE(dim=8, order_weights=())


# ------------------------------------------------------------ guard rails
def test_netmf_refuses_huge_graph(small_undirected):
    model = make_embedder("netmf", 8, max_dense_nodes=10)
    with pytest.raises(ParameterError):
        model.fit(small_undirected)


def test_ga_refuses_huge_graph(small_undirected):
    model = make_embedder("ga", 8, max_dense_nodes=10)
    with pytest.raises(ParameterError):
        model.fit(small_undirected)


def test_ga_attention_is_distribution(small_undirected):
    model = make_embedder("ga", 8, seed=0).fit(small_undirected)
    att = model.attention_
    assert att.min() >= 0
    assert att.sum() == pytest.approx(1.0)


def test_rare_scores_are_probabilities(small_undirected):
    model = make_embedder("rare", 16, epochs=2, seed=0).fit(small_undirected)
    scores = model.score_pairs(np.arange(10), np.arange(10, 20))
    assert np.all((scores >= 0) & (scores <= 1))


def test_rare_popularity_tracks_degree(small_undirected):
    model = make_embedder("rare", 16, epochs=3, seed=0).fit(small_undirected)
    deg = small_undirected.out_degrees
    # popularity should correlate positively with degree
    corr = np.corrcoef(model.popularity_, deg)[0, 1]
    assert corr > 0.3


def test_nethiex_taxonomy_levels(small_undirected):
    model = make_embedder("nethiex", 16, branches=4,
                          seed=0).fit(small_undirected)
    level1, level2 = model.taxonomy_
    assert len(np.unique(level1)) <= 4
    assert (level2 // 4 == level1).all()


def test_methods_deterministic(small_undirected):
    for name in ("arope", "randne", "prone", "strap"):
        a = make_embedder(name, 16, seed=5).fit(small_undirected)
        b = make_embedder(name, 16, seed=5).fit(small_undirected)
        np.testing.assert_array_equal(a.node_features(), b.node_features())
