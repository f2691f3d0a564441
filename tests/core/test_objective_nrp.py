"""Tests for the Eq. (6) objective and the complete NRP pipeline."""

import numpy as np
import pytest

from repro.core import (NRP, ApproxPPREmbedder, NRPConfig,
                        reweighting_objective, strength_vectors)
from repro.errors import DimensionError, ParameterError
from repro.ppr import ppr_matrix_dense


# ------------------------------------------------------------- objective
def test_objective_matches_bruteforce(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    lam = 0.7
    n = x.shape[0]
    # brute force straight from Eq. (6)
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    np.fill_diagonal(g, 0.0)
    brute = (((g.sum(axis=0) - d_in) ** 2).sum()
             + ((g.sum(axis=1) - d_out) ** 2).sum()
             + lam * (w_fwd @ w_fwd + w_bwd @ w_bwd))
    fast = reweighting_objective(x, y, w_fwd, w_bwd, d_out, d_in, lam)
    assert fast == pytest.approx(brute, rel=1e-10)


def test_strength_vectors_match_bruteforce(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    np.fill_diagonal(g, 0.0)
    out_strength, in_strength = strength_vectors(x, y, w_fwd, w_bwd)
    np.testing.assert_allclose(out_strength, g.sum(axis=1), rtol=1e-10)
    np.testing.assert_allclose(in_strength, g.sum(axis=0), rtol=1e-10)


def test_objective_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        reweighting_objective(np.ones((3, 2)), np.ones((3, 2)),
                              np.ones(2), np.ones(3),
                              np.ones(3), np.ones(3), 0.0)


# ------------------------------------------------------------------- NRP
def test_nrp_shapes_and_finiteness(small_undirected):
    model = NRP(dim=16, svd="exact", seed=0).fit(small_undirected)
    n = small_undirected.num_nodes
    assert model.forward_.shape == (n, 8)
    assert model.backward_.shape == (n, 8)
    assert np.all(np.isfinite(model.forward_))
    assert model.node_features().shape == (n, 16)


@pytest.mark.parametrize("method", [NRP, ApproxPPREmbedder])
def test_public_embeddings_are_float64(small_undirected, method):
    """Algorithm 1 runs in float32; what a fit exposes is float64."""
    model = method(dim=16, seed=0).fit(small_undirected)
    assert model.forward_.dtype == np.float64
    assert model.backward_.dtype == np.float64


def test_nrp_weights_above_floor(small_undirected):
    model = NRP(dim=16, svd="exact", seed=0).fit(small_undirected)
    n = small_undirected.num_nodes
    assert np.all(model.w_fwd_ >= 1.0 / n - 1e-12)
    assert np.all(model.w_bwd_ >= 1.0 / n - 1e-12)


def test_nrp_objective_decreases_over_epochs(small_undirected):
    model = NRP(dim=16, svd="exact", lam=0.1, ell2=6, seed=0,
                track_objective=True).fit(small_undirected)
    history = model.objective_history_
    assert len(history) == 7
    assert history[-1] < history[0]
    # by far most of the improvement happens in the first epochs (Fig. 8d)
    assert history[1] - history[-1] < history[0] - history[1]


def test_nrp_final_embeddings_are_weighted_base(small_undirected):
    """Lines 8-9 of Algorithm 3."""
    model = NRP(dim=16, svd="exact", seed=0).fit(small_undirected)
    np.testing.assert_allclose(
        model.forward_, model.w_fwd_[:, None] * model.base_forward_,
        rtol=1e-12)
    np.testing.assert_allclose(
        model.backward_, model.w_bwd_[:, None] * model.base_backward_,
        rtol=1e-12)


def test_nrp_ell2_zero_is_conventional_ppr(small_undirected):
    """ell2 = 0 disables reweighting entirely (paper Section 5.6): the
    embeddings coincide with ApproxPPR's."""
    model = NRP(dim=16, svd="exact", ell2=0, seed=0).fit(small_undirected)
    np.testing.assert_allclose(model.w_fwd_, 1.0, rtol=1e-12)
    np.testing.assert_allclose(model.w_bwd_, 1.0, rtol=1e-12)
    np.testing.assert_allclose(model.forward_, model.base_forward_,
                               rtol=1e-12)


def test_nrp_reverses_counterintuitive_ppr_ranking(fig1):
    """The headline fix: PPR prefers (v9,v7); NRP prefers (v2,v4)."""
    pi = ppr_matrix_dense(fig1, 0.15)
    assert pi[8, 6] > pi[1, 3]            # vanilla PPR: wrong order
    model = NRP(dim=8, svd="exact", lam=0.1, seed=0).fit(fig1)
    s_24 = model.score_pairs([1], [3])[0]
    s_97 = model.score_pairs([8], [6])[0]
    assert s_24 > s_97                    # NRP: intuitive order


def test_approxppr_keeps_counterintuitive_ranking(fig1):
    model = ApproxPPREmbedder(dim=8, svd="exact", seed=0).fit(fig1)
    s_24 = model.score_pairs([1], [3])[0]
    s_97 = model.score_pairs([8], [6])[0]
    assert s_97 > s_24


def test_nrp_total_strength_tracks_degrees(small_undirected):
    """Eq. (5): reweighted strengths approximate in/out degrees."""
    from repro.core import strength_vectors
    model = NRP(dim=32, svd="exact", lam=0.01, ell2=15,
                seed=0).fit(small_undirected)
    out_strength, in_strength = strength_vectors(
        model.base_forward_, model.base_backward_,
        model.w_fwd_, model.w_bwd_)
    d = small_undirected.out_degrees.astype(float)
    base_out, base_in = strength_vectors(
        model.base_forward_, model.base_backward_,
        np.maximum(d, 1.0 / small_undirected.num_nodes),
        np.ones(small_undirected.num_nodes))
    # reweighting brings strengths much closer to degrees than the init
    assert (np.abs(out_strength - d).mean()
            < np.abs(base_out - d).mean() * 0.8)


def test_nrp_directed(small_directed):
    model = NRP(dim=16, seed=0).fit(small_directed)
    assert np.all(np.isfinite(model.forward_))
    # forward and backward sides differ on directed graphs
    assert not np.allclose(model.forward_, model.backward_)


def test_nrp_jacobi_mode_runs(small_undirected):
    model = NRP(dim=16, svd="exact", update_mode="jacobi",
                seed=0).fit(small_undirected)
    assert np.all(np.isfinite(model.forward_))


def test_nrp_deterministic(small_undirected):
    a = NRP(dim=16, seed=123).fit(small_undirected)
    b = NRP(dim=16, seed=123).fit(small_undirected)
    np.testing.assert_array_equal(a.forward_, b.forward_)
    np.testing.assert_array_equal(a.backward_, b.backward_)


def test_nrp_config_validation():
    with pytest.raises(ParameterError):
        NRP(dim=15)                       # odd dim
    with pytest.raises(ParameterError):
        NRP(dim=16, ell2=-1)
    with pytest.raises(ParameterError):
        NRP(dim=16, lam=-2.0)
    with pytest.raises(ParameterError):
        NRP(dim=16, update_mode="nope").fit            # validated in ctor


def test_nrp_score_pairs_requires_fit():
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        NRP(dim=8).score_pairs([0], [1])


def test_nrpconfig_defaults_match_paper():
    cfg = NRPConfig()
    assert cfg.dim == 128 and cfg.alpha == 0.15
    assert cfg.ell1 == 20 and cfg.ell2 == 10
    assert cfg.eps == 0.2 and cfg.lam == 10.0
