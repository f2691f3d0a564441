"""Tests for exact PPR solvers, including the paper's Table 1."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import TABLE1_PPR, erdos_renyi, from_edges
from repro.ppr import (ppr_matrix_dense, ppr_row, ppr_rows,
                       truncated_ppr_matrix)


def test_table1_rows_match_paper(fig1):
    """Exact reproduction of the paper's Table 1 (alpha = 0.15).

    Rows v2, v4, v9 match the printed values to the printed precision.
    The printed v7 row is a known erratum: it violates the undirected
    reversibility identity d(u) pi(u,v) = d(v) pi(v,u) (checked below).
    """
    pi = ppr_matrix_dense(fig1, 0.15)
    for src in (1, 3, 8):
        np.testing.assert_allclose(pi[src], TABLE1_PPR[src], atol=1.5e-3)


def test_table1_v7_row_erratum(fig1):
    pi = ppr_matrix_dense(fig1, 0.15)
    deg = fig1.out_degrees
    # our computation satisfies reversibility ...
    lhs = deg[6] * pi[6, 8]
    rhs = deg[8] * pi[8, 6]
    assert lhs == pytest.approx(rhs, rel=1e-6)
    # ... while the paper's printed v7 row does not
    paper_lhs = deg[6] * TABLE1_PPR[6][8]
    paper_rhs = deg[8] * TABLE1_PPR[8][6]
    assert abs(paper_lhs - paper_rhs) > 0.05


def test_paper_motivating_inequality(fig1):
    """pi(v9, v7) > pi(v2, v4): the counter-intuitive ranking of Section 1."""
    pi = ppr_matrix_dense(fig1, 0.15)
    assert pi[8, 6] > pi[1, 3]


def test_rows_sum_to_one_without_dangling(fig1):
    pi = ppr_matrix_dense(fig1, 0.15)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-9)


def test_reversibility_identity_whole_matrix(fig1):
    pi = ppr_matrix_dense(fig1, 0.15)
    deg = fig1.out_degrees.astype(float)
    np.testing.assert_allclose(deg[:, None] * pi, (deg[:, None] * pi).T,
                               atol=1e-9)


def test_ppr_row_matches_matrix(fig1):
    pi = ppr_matrix_dense(fig1, 0.2)
    row = ppr_row(fig1, 4, 0.2)
    np.testing.assert_allclose(row, pi[4], atol=1e-12)


def test_ppr_rows_batch(er_graph):
    sources = np.array([0, 5, 9])
    batch = ppr_rows(er_graph, sources, 0.15)
    for i, s in enumerate(sources):
        np.testing.assert_allclose(batch[i], ppr_row(er_graph, s, 0.15),
                                   atol=1e-12)


def test_self_ppr_at_least_alpha(er_graph):
    pi = ppr_rows(er_graph, np.arange(20), 0.15)
    assert np.all(pi[np.arange(20), np.arange(20)] >= 0.15 - 1e-9)


def test_dangling_absorbs_mass():
    g = from_edges(3, [0, 1], [1, 2], directed=True)   # 2 is dangling
    row = ppr_row(g, 0, 0.15)
    assert row.sum() == pytest.approx(1.0, abs=1e-9)
    assert row[2] > 0.5        # most mass ends in the sink


def test_alpha_extremes(fig1):
    nearly_1 = ppr_row(fig1, 0, 0.999)
    assert nearly_1[0] > 0.99                     # walk stops immediately
    spread = ppr_row(fig1, 0, 0.01)
    assert spread[0] < 0.2                        # walk diffuses widely


def test_invalid_alpha(fig1):
    with pytest.raises(Exception):
        ppr_row(fig1, 0, 0.0)
    with pytest.raises(Exception):
        ppr_row(fig1, 0, 1.0)


@pytest.mark.parametrize("source", [-1, 9])
def test_source_out_of_range(fig1, source):
    """A negative id must not wrap around to node 8's row."""
    with pytest.raises(ParameterError, match=r"source out of range \[0, 9\)"):
        ppr_row(fig1, source)
    with pytest.raises(ParameterError, match="out of range"):
        ppr_rows(fig1, [0, source])


def test_max_iters_below_one(fig1):
    """Zero iterations would return an all-zero 'PPR row'."""
    with pytest.raises(ParameterError, match="max_iters"):
        ppr_rows(fig1, [0], max_iters=0)
    with pytest.raises(ParameterError, match="max_iters"):
        ppr_matrix_dense(fig1, max_iters=-3)
    np.testing.assert_allclose(ppr_rows(fig1, [0], max_iters=1)[0],
                               np.eye(9)[0] * 0.15)


def test_truncated_matrix_error_bound(fig1):
    """|Pi - alpha I - Pi'| <= (1-alpha)^(ell+1) elementwise (Eq. 3)."""
    alpha, ell = 0.15, 12
    pi = ppr_matrix_dense(fig1, alpha)
    trunc = truncated_ppr_matrix(fig1, alpha, ell)
    residual = np.abs(pi - alpha * np.eye(9) - trunc)
    assert residual.max() <= (1 - alpha) ** (ell + 1) + 1e-12


def test_truncated_matrix_monotone_in_terms(fig1):
    t5 = truncated_ppr_matrix(fig1, 0.15, 5)
    t20 = truncated_ppr_matrix(fig1, 0.15, 20)
    # adding terms only adds nonnegative mass
    assert np.all(t20 - t5 >= -1e-12)
