"""Tests for the synthetic graph generators, incl. hypothesis properties."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import (barabasi_albert, chung_lu, erdos_renyi,
                         link_prediction_split, powerlaw_community,
                         powerlaw_weights, rmat, sbm, watts_strogatz)
from repro.graph.generators import _PairSampler


def test_erdos_renyi_exact_edge_count():
    g = erdos_renyi(100, 300, seed=0)
    assert g.num_nodes == 100
    assert g.num_edges == 300


def test_erdos_renyi_directed():
    g = erdos_renyi(50, 200, directed=True, seed=1)
    assert g.directed and g.num_edges == 200


def test_erdos_renyi_deterministic():
    a = erdos_renyi(60, 150, seed=7)
    b = erdos_renyi(60, 150, seed=7)
    assert np.array_equal(a.indices, b.indices)


def test_erdos_renyi_rejects_too_many_edges():
    with pytest.raises(ParameterError):
        erdos_renyi(4, 100, seed=0)


def test_erdos_renyi_no_self_loops():
    g = erdos_renyi(30, 100, seed=2)
    src, dst = g.arcs()
    assert np.all(src != dst)


@given(st.integers(10, 60), st.integers(20, 80), st.booleans())
@settings(max_examples=15, deadline=None)
def test_erdos_renyi_property(n, m, directed):
    limit = n * (n - 1) // (1 if directed else 2)
    m = min(m, limit)
    g = erdos_renyi(n, m, directed=directed, seed=3)
    assert g.num_edges == m
    src, dst = g.arcs()
    assert np.all(src != dst)
    if not directed:
        a = g.adjacency()
        assert (a != a.T).nnz == 0


def test_powerlaw_weights_heavy_tail():
    w = powerlaw_weights(5000, exponent=2.2, seed=0)
    assert w.min() >= 1.0
    assert w.max() / np.median(w) > 5.0      # heavy tail exists


def test_powerlaw_weights_rejects_bad_exponent():
    with pytest.raises(ParameterError):
        powerlaw_weights(10, exponent=0.9)


def test_chung_lu_respects_weights():
    w = np.ones(100)
    w[:5] = 50.0
    g = chung_lu(w, 400, seed=0)
    deg = g.out_degrees
    assert deg[:5].mean() > 4 * deg[5:].mean()


def test_powerlaw_community_returns_communities():
    g, comm = powerlaw_community(300, 1500, num_communities=6, seed=0)
    assert g.num_edges == 1500
    assert comm.shape == (300,)
    assert set(np.unique(comm)) <= set(range(6))


def test_powerlaw_community_mixing_controls_locality():
    g_lo, comm = powerlaw_community(400, 2000, num_communities=4,
                                    mixing=0.05, seed=1)
    g_hi, comm_hi = powerlaw_community(400, 2000, num_communities=4,
                                       mixing=0.9, seed=1)

    def intra_fraction(g, c):
        src, dst = g.edges()
        return float((c[src] == c[dst]).mean())

    assert intra_fraction(g_lo, comm) > intra_fraction(g_hi, comm_hi) + 0.2


def test_powerlaw_community_rejects_bad_mixing():
    with pytest.raises(ParameterError):
        powerlaw_community(50, 100, mixing=1.5)


def test_sbm_blocks():
    g, block = sbm([30, 30], 0.3, 0.01, seed=0)
    src, dst = g.edges()
    intra = (block[src] == block[dst]).mean()
    assert intra > 0.8


def test_barabasi_albert_degree_skew():
    g = barabasi_albert(300, 2, seed=0)
    deg = np.sort(g.out_degrees)[::-1]
    assert deg[0] > 4 * np.median(deg)
    assert g.num_nodes == 300


def test_barabasi_albert_rejects_bad_attach():
    with pytest.raises(ParameterError):
        barabasi_albert(10, 0)


def test_watts_strogatz_degree():
    g = watts_strogatz(100, 4, 0.0, seed=0)
    assert np.all(g.out_degrees >= 2)
    assert g.num_edges == 200


def test_watts_strogatz_rejects_odd_degree():
    with pytest.raises(ParameterError):
        watts_strogatz(20, 3, 0.1)


def test_rmat_size_and_skew():
    g = rmat(8, 1000, seed=0)
    assert g.num_nodes == 256
    assert g.num_edges == 1000
    deg = np.sort(np.asarray(g.out_degrees))[::-1]
    assert deg[0] >= 4 * max(np.median(deg), 1)


def test_rmat_rejects_bad_probs():
    with pytest.raises(ParameterError):
        rmat(5, 10, a=0.5, b=0.4, c=0.3)


def _first_distinct_pairs(src, dst, directed):
    """Oracle: self loops dropped, then the first occurrence of every
    (for undirected graphs unordered) pair, in draw order."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    _, idx = np.unique(src * 1000 + dst, return_index=True)
    idx.sort()
    return src[idx], dst[idx]


@given(st.integers(2, 30), st.lists(st.integers(0, 200), min_size=1,
                                    max_size=4),
       st.booleans(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair_sampler_keeps_first_distinct_pairs(n, sizes, directed, seed):
    """Draw by draw, the sampler keeps what deduplicating all the draws
    at once keeps, in the same order."""
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(0, n, size), rng.integers(0, n, size))
             for size in sizes]
    pairs = _PairSampler(n, directed)
    for src, dst in draws:
        pairs.add(src, dst)
    want_src, want_dst = _first_distinct_pairs(
        np.concatenate([s for s, _ in draws]),
        np.concatenate([d for _, d in draws]), directed)
    np.testing.assert_array_equal(np.concatenate(pairs.src), want_src)
    np.testing.assert_array_equal(np.concatenate(pairs.dst), want_dst)
    assert pairs.count == len(want_src)
    assert np.array_equal(pairs.keys, np.sort(want_src * n + want_dst))


def _digest(*arrays):
    data = np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays])
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def test_generated_graphs_and_splits_are_pinned():
    """SHA-256 prefixes of small graphs and link-prediction splits, as
    the dedup by ``np.unique`` and ``np.union1d`` produced them: the
    sorted-key sampling draws the same graphs and the same splits."""
    g, _ = powerlaw_community(600, 6000, num_communities=1, seed=0)
    split = link_prediction_split(g, seed=1)
    assert _digest(g.indptr, g.indices) == "f6f56e74bd6f06cc"
    assert _digest(split.train_graph.indices, split.pos_src, split.pos_dst,
                   split.neg_src, split.neg_dst) == "84cffb98afb56054"
    g, community = powerlaw_community(800, 4000, num_communities=8,
                                      directed=True, seed=2)
    split = link_prediction_split(g, seed=3)
    assert _digest(g.indptr, g.indices, community) == "e05ceee48ffbe3ab"
    assert _digest(split.train_graph.indices, split.pos_src, split.pos_dst,
                   split.neg_src, split.neg_dst) == "bf1432d0895f7604"
    g = erdos_renyi(300, 3000, seed=4)
    assert _digest(g.indptr, g.indices) == "321e52058e54b8ed"
