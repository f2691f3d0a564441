"""Property tests for the frontier spread, the streaming repair's inner
step, on graphs that include dangling nodes and parallel (multigraph)
arcs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import from_edges
from repro.ppr import spread_frontier


@st.composite
def push_graphs(draw):
    """Random graphs with dangling nodes and optional parallel edges."""
    n = draw(st.integers(2, 30))
    directed = draw(st.booleans())
    m = draw(st.integers(0, 3 * n))
    seed = draw(st.integers(0, 10_000))
    dedup = draw(st.booleans())
    rng = np.random.default_rng(seed)
    return from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                      directed=directed, dedup=dedup)


@given(push_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_spread_frontier_matches_dense_product(graph, data):
    """``rows, spread`` is ``decay * P[:, frontier] @ delta`` restricted
    to its nonzero rows; each parallel arc delivers its own share."""
    n = graph.num_nodes
    frontier = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                           unique=True, max_size=n)),
                        dtype=np.int64)
    k = data.draw(st.integers(1, 4))
    decay = data.draw(st.sampled_from([0.85, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    delta = rng.standard_normal((len(frontier), k))
    rows, spread = spread_frontier(graph, frontier, delta, decay=decay)
    assert spread.shape == (len(rows), k)
    assert np.all(np.diff(rows) > 0)            # sorted, no repeats
    p = graph.transition_matrix().toarray()     # sums parallel arcs
    dense = decay * (p[:, frontier] @ delta)
    full = np.zeros_like(dense)
    full[rows] = spread
    np.testing.assert_allclose(full, dense, atol=1e-12)
    # rows not reported must be exactly untouched
    untouched = np.setdiff1d(np.arange(n), rows)
    assert np.all(dense[untouched] == 0.0)


def test_spread_frontier_validates_shapes(er_graph):
    with pytest.raises(ParameterError):
        spread_frontier(er_graph, [0, 1], np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        spread_frontier(er_graph, [-1], np.zeros((1, 2)))
    rows, spread = spread_frontier(er_graph, [], np.zeros((0, 4)))
    assert len(rows) == 0 and spread.shape == (0, 4)
