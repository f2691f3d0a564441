"""Property-based invariants of the exact PPR solver.

Power iteration computes termination PPR: on random graphs its rows are
nonnegative and sum to ~1, and a walk at a dangling node terminates
there, so ``pi(s, .) = e_s`` for a dangling source.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import erdos_renyi, from_edges
from repro.ppr import ppr_matrix_dense, ppr_row, ppr_rows


@st.composite
def random_graphs(draw):
    """A small random graph plus a source node, deterministic per draw."""
    n = draw(st.integers(5, 40))
    directed = draw(st.booleans())
    max_edges = n * (n - 1) // (1 if directed else 2)
    m = draw(st.integers(n, min(4 * n, max_edges)))
    seed = draw(st.integers(0, 10_000))
    graph = erdos_renyi(n, m, directed=directed, seed=seed)
    source = draw(st.integers(0, n - 1))
    return graph, source


@given(random_graphs(), st.sampled_from([0.1, 0.15, 0.5]))
@settings(max_examples=25, deadline=None)
def test_power_iteration_rows_are_distributions(graph_source, alpha):
    graph, source = graph_source
    row = ppr_rows(graph, np.array([source]), alpha)[0]
    assert np.all(row >= -1e-15)
    assert row.sum() == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# dangling-node consistency
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def dangling_graph():
    """Directed graph where node 3 has no out-arcs (a dangling node)."""
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 4), (4, 0)]
    return from_edges(5, [e[0] for e in edges], [e[1] for e in edges],
                      directed=True)


def test_dangling_source_is_delta_under_every_backend(dangling_graph):
    """A walk from a dangling node terminates immediately: pi(s,.) = e_s,
    through each entry point of the exact solver."""
    g = dangling_graph
    s = 3
    expected = np.zeros(g.num_nodes)
    expected[s] = 1.0

    exact = ppr_rows(g, np.array([s]), 0.15)[0]
    np.testing.assert_allclose(exact, expected, atol=1e-12)
    np.testing.assert_allclose(ppr_row(g, s, 0.15), expected, atol=1e-12)
    np.testing.assert_allclose(ppr_matrix_dense(g, 0.15)[s], expected,
                               atol=1e-12)


def test_dangling_rows_sum_to_one_everywhere(dangling_graph):
    """Termination-PPR conserves mass even when walks hit dangling nodes."""
    rows = ppr_rows(dangling_graph, np.arange(dangling_graph.num_nodes), 0.15)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(rows >= -1e-15)
