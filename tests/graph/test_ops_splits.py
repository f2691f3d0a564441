"""Tests for graph ops (removal, subgraph, CC) and task splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import (arc_ids, arc_index_of, erdos_renyi, from_edges,
                         largest_connected_component, link_prediction_split,
                         remove_arcs, sample_non_edges, subgraph,
                         train_test_nodes)


def test_remove_arcs_undirected(fig1):
    g = remove_arcs(fig1, [0], [1])
    assert not g.has_edge(0, 1)
    assert not g.has_arc(1, 0)
    assert g.num_edges == fig1.num_edges - 1
    assert not g.directed


def test_remove_arcs_directed(tiny_directed):
    g = remove_arcs(tiny_directed, [0], [1])
    assert not g.has_arc(0, 1)
    assert g.num_arcs == tiny_directed.num_arcs - 1


def test_remove_missing_arc_is_noop(fig1):
    g = remove_arcs(fig1, [1], [3])     # (v2, v4) is not an edge
    assert g.num_edges == fig1.num_edges


@pytest.fixture()
def path5():
    """The directed path 0 -> 1 -> 2 -> 3 -> 4."""
    return from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4], directed=True)


@pytest.mark.parametrize("op", [remove_arcs, arc_index_of])
@pytest.mark.parametrize("src, dst, match", [
    ([0], [7], r"out of range \[0, 5\) in {op}"),   # key aliases (1, 2)
    ([4], [-1], "out of range"),                    # key aliases (3, 4)
    ([5], [0], "out of range"),
    ([0, 1], [1], "equal length"),                  # used to broadcast
])
def test_arc_lookups_validate_like_add_arcs(path5, op, src, dst, match):
    with pytest.raises(ParameterError, match=match.format(op=op.__name__)):
        op(path5, src, dst)


def test_arc_ids_unique(fig1):
    ids = arc_ids(fig1)
    assert len(np.unique(ids)) == fig1.num_arcs


def test_arc_index_of(fig1):
    src, dst = fig1.arcs()
    idx = arc_index_of(fig1, src[:5], dst[:5])
    assert np.array_equal(idx, np.arange(5))
    missing = arc_index_of(fig1, np.array([1]), np.array([3]))
    assert missing[0] == -1


def test_subgraph_remaps_ids(fig1):
    sub = subgraph(fig1, [0, 1, 2, 3, 4])    # the dense v1..v5 cluster
    assert sub.num_nodes == 5
    assert sub.num_edges == 8                # 12 total - 4 path edges


def test_subgraph_directed(tiny_directed):
    sub = subgraph(tiny_directed, [0, 1, 2])
    assert sub.directed
    assert sub.has_arc(0, 1) and sub.has_arc(2, 0)


def test_largest_connected_component():
    # two components: a triangle and an edge
    g = from_edges(5, [0, 1, 2, 3], [1, 2, 0, 4], directed=False)
    cc = largest_connected_component(g)
    assert cc.num_nodes == 3
    assert cc.num_edges == 3


def test_sample_non_edges_are_not_edges(fig1):
    src, dst = sample_non_edges(fig1, 10, seed=0)
    assert len(src) == 10
    for u, v in zip(src.tolist(), dst.tolist()):
        assert not fig1.has_edge(u, v)
        assert u != v


def test_sample_non_edges_distinct(er_graph):
    src, dst = sample_non_edges(er_graph, 500, seed=1)
    keys = src * er_graph.num_nodes + dst
    assert len(np.unique(keys)) == 500


def test_sample_non_edges_respects_forbidden(er_graph):
    forbidden_src, forbidden_dst = sample_non_edges(er_graph, 50, seed=2)
    fkeys = np.sort(forbidden_src * er_graph.num_nodes + forbidden_dst)
    src, dst = sample_non_edges(er_graph, 200, seed=3, forbidden_keys=fkeys)
    keys = src * er_graph.num_nodes + dst
    assert len(np.intersect1d(keys, fkeys)) == 0


def test_sample_non_edges_too_many():
    g = from_edges(3, [0], [1], directed=False)
    with pytest.raises(ParameterError):
        sample_non_edges(g, 100, seed=0)


def test_link_prediction_split_counts(er_graph):
    split = link_prediction_split(er_graph, test_fraction=0.3, seed=0)
    expect = int(round(er_graph.num_edges * 0.3))
    assert len(split.pos_src) == expect
    assert len(split.neg_src) == expect
    assert split.train_graph.num_edges == er_graph.num_edges - expect


def test_link_prediction_split_positives_removed(er_graph):
    split = link_prediction_split(er_graph, seed=1)
    for u, v in zip(split.pos_src[:50].tolist(), split.pos_dst[:50].tolist()):
        assert er_graph.has_edge(u, v)
        assert not split.train_graph.has_edge(u, v)


def test_link_prediction_split_negatives_not_in_original(er_graph):
    split = link_prediction_split(er_graph, seed=2)
    for u, v in zip(split.neg_src[:50].tolist(), split.neg_dst[:50].tolist()):
        assert not er_graph.has_edge(u, v)


def test_link_prediction_test_pairs_labels(er_graph):
    split = link_prediction_split(er_graph, seed=3)
    src, dst, labels = split.test_pairs
    assert len(src) == len(dst) == len(labels)
    assert labels.sum() == len(split.pos_src)


def test_link_prediction_split_directed(small_directed):
    split = link_prediction_split(small_directed, seed=4)
    assert split.train_graph.directed
    # ordered pairs: the reverse arc may legitimately remain
    u, v = int(split.pos_src[0]), int(split.pos_dst[0])
    assert not split.train_graph.has_arc(u, v)


def test_link_prediction_rejects_bad_fraction(er_graph):
    with pytest.raises(ParameterError):
        link_prediction_split(er_graph, test_fraction=0.0)


@given(st.floats(0.1, 0.9))
@settings(max_examples=10, deadline=None)
def test_train_test_nodes_partition(frac):
    train, test = train_test_nodes(100, frac, seed=0)
    assert len(train) + len(test) == 100
    assert len(np.intersect1d(train, test)) == 0
    assert abs(len(train) - 100 * frac) <= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**31 - 1))
def test_add_arcs_inverts_remove_arcs(count, directed, seed):
    """Property: removing arcs then re-adding them restores the CSR."""
    graph = erdos_renyi(30, 120, directed=directed, seed=7)
    rng = np.random.default_rng(seed)
    src, dst = graph.edges()
    pick = rng.choice(len(src), size=min(count, len(src)), replace=False)
    removed = remove_arcs(graph, src[pick], dst[pick])
    from repro.graph import add_arcs
    restored = add_arcs(removed, src[pick], dst[pick])
    assert np.array_equal(restored.indptr, graph.indptr)
    assert np.array_equal(restored.indices, graph.indices)
    restored._validate()
