"""NRP edge cases: ell2=0 unit weights, dangling clamp, objective
monotonicity, run-to-run determinism, and configuration validation."""

import numpy as np
import pytest

from repro.core import NRP, ApproxPPREmbedder, NRPConfig
from repro.core.reweighting import update_backward_weights
from repro.errors import ParameterError
from repro.graph import from_edges


@pytest.fixture(scope="module")
def dangling_directed():
    """Directed graph whose last 3 nodes have no out-arcs."""
    rng = np.random.default_rng(9)
    n = 60
    src = rng.integers(0, n - 3, 300)
    dst = rng.integers(0, n, 300)
    g = from_edges(n, src, dst, directed=True)
    assert np.any(g.out_degrees == 0)
    return g


# ----------------------------------------------------------------------
# ell2 = 0: reweighting disabled (Section 5.6)
# ----------------------------------------------------------------------

def test_ell2_zero_uses_unit_weights(small_undirected):
    model = NRP(dim=16, seed=0, ell2=0).fit(small_undirected)
    np.testing.assert_array_equal(model.w_fwd_, 1.0)
    np.testing.assert_array_equal(model.w_bwd_, 1.0)


def test_ell2_zero_embeddings_equal_base_factorization(small_undirected):
    model = NRP(dim=16, seed=0, ell2=0).fit(small_undirected)
    np.testing.assert_array_equal(model.forward_, model.base_forward_)
    np.testing.assert_array_equal(model.backward_, model.base_backward_)


def test_ell2_zero_skips_degree_initialization(small_undirected):
    """ell2=0 must NOT start from w_fwd = d_out (the Line-4 init)."""
    model = NRP(dim=16, seed=0, ell2=0).fit(small_undirected)
    d_out = small_undirected.out_degrees.astype(float)
    assert not np.allclose(model.w_fwd_, np.maximum(d_out, 1.0 / 120))


# ----------------------------------------------------------------------
# dangling-node weight clamp
# ----------------------------------------------------------------------

def test_dangling_nodes_respect_weight_floor(dangling_directed):
    """Line 4 starts w_fwd at d_out; dangling nodes are clamped to 1/n,
    and every sweep keeps all weights at or above that floor."""
    n = dangling_directed.num_nodes
    model = NRP(dim=12, seed=0, ell2=3).fit(dangling_directed)
    assert np.all(model.w_fwd_ >= 1.0 / n - 1e-15)
    assert np.all(model.w_bwd_ >= 1.0 / n - 1e-15)
    assert np.all(np.isfinite(model.forward_))
    assert np.all(np.isfinite(model.backward_))


def test_dangling_clamp_matches_documented_initialization(dangling_directed):
    """With ell2 > 0 the initial forward weights are max(d_out, 1/n); one
    backward sweep leaves w_fwd untouched, making the clamp observable."""
    n = dangling_directed.num_nodes
    d_out = dangling_directed.out_degrees.astype(np.float64)
    expected_init = np.maximum(d_out, 1.0 / n)

    # replicate fit up to (but not including) the first forward sweep
    from repro.core.approx_ppr import ApproxPPRConfig, approx_ppr_embeddings
    from repro.rng import spawn_rngs
    svd_rng, sweep_rng = spawn_rngs(0, 2)
    x, y = approx_ppr_embeddings(dangling_directed, ApproxPPRConfig(
        k_prime=6, seed=svd_rng))
    d_in = dangling_directed.in_degrees.astype(np.float64)
    w_bwd = update_backward_weights(x, y, expected_init, np.ones(n), d_out,
                                    d_in, 10.0, seed=sweep_rng)
    assert np.all(w_bwd >= 1.0 / n - 1e-15)
    # dangling nodes start exactly at the floor, not at zero
    dangling = d_out == 0
    assert np.all(expected_init[dangling] == 1.0 / n)


# ----------------------------------------------------------------------
# objective tracking
# ----------------------------------------------------------------------

def test_objective_history_monotone_nonincreasing(small_undirected):
    model = NRP(dim=16, seed=0, ell2=5, exact_b1=True,
                track_objective=True).fit(small_undirected)
    hist = model.objective_history_
    assert len(hist) == 6           # initial value + one per epoch
    diffs = np.diff(hist)
    assert np.all(diffs <= 1e-9)


def test_objective_history_empty_without_tracking(small_undirected):
    model = NRP(dim=16, seed=0, ell2=2).fit(small_undirected)
    assert model.objective_history_ == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_default_fit_is_bit_identical_across_runs(small_undirected):
    """Refitting with the same seed reproduces the embeddings exactly."""
    for mode in ("sequential", "jacobi"):
        first, again = (NRP(dim=16, seed=0, update_mode=mode, ell2=4,
                            ).fit(small_undirected) for _ in range(2))
        assert np.array_equal(again.forward_, first.forward_)
        assert np.array_equal(again.backward_, first.backward_)


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_config_rejects_alpha_outside_open_interval(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        NRPConfig(alpha=alpha).validate()


@pytest.mark.parametrize("field, value", [
    ("lam", float("nan")), ("lam", float("inf")), ("eps", float("nan")),
    ("dim", 16.0), ("ell1", 2.5), ("ell2", 1.5), ("ell1", 20.0),
])
def test_config_rejects_nonfinite_and_fractional_values(field, value):
    with pytest.raises(ParameterError, match=field):
        NRPConfig(**{field: value}).validate()
    with pytest.raises(ParameterError, match=field):
        NRP(**{"dim": 16, field: value})


def test_nrp_constructor_validates_chunk_arguments():
    """The fit runs in one process: chunk and worker knobs are gone."""
    for cls in (NRP, ApproxPPREmbedder):
        with pytest.raises(TypeError, match="chunk_size"):
            cls(dim=16, chunk_size=64)
        with pytest.raises(TypeError, match="workers"):
            cls(dim=16, workers=2)
    with pytest.raises(ParameterError, match="alpha"):
        NRP(dim=16, alpha=1.0)


def test_default_config_remains_valid():
    NRPConfig().validate()
    # NumPy integers, an infinite eps and lam = 0 still validate
    NRPConfig(dim=np.int64(16), ell1=np.int32(5), ell2=np.int64(2),
              eps=float("inf"), lam=0).validate()


def test_update_functions_validate_chunk_arguments(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    with pytest.raises(TypeError, match="chunk_size"):
        update_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in, 0.1,
                                chunk_size=8)
    with pytest.raises(TypeError, match="workers"):
        update_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in, 0.1,
                                workers=2)
    with pytest.raises(ParameterError):
        update_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in, 0.1,
                                mode="chaotic")
