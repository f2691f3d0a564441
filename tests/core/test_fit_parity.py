"""Parity suite: the chunked/parallel fit pipeline vs the default path.

Three guarantees are pinned here, matching the engine's contract:

* a fit is deterministic: two default fits are bit-identical;
* the chunked engine is deterministic given ``seed`` regardless of
  ``workers`` — worker counts 1/2/4 produce bit-identical embeddings;
* the chunked trajectory tracks the default path to ``<= 1e-8`` max abs
  diff (the sparse products are bit-identical; the reweighting
  precompute reassociates a handful of dot products, observed
  ``~1e-14``).

The reweighting sweep itself is pinned to a per-node Algorithm-2 loop
in ``test_reweighting.py``.
"""

import numpy as np
import pytest

from repro.core import (ApproxPPRConfig, ApproxPPREmbedder, NRP,
                        approx_ppr_embeddings)

PARITY_TOL = 1e-8


def _embeddings(model):
    return model.forward_, model.backward_


def _max_diff(a, b):
    return max(np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max())


@pytest.fixture(scope="module")
def seed_models(small_undirected):
    return {mode: _embeddings(NRP(dim=16, seed=0, update_mode=mode,
                                  ell2=4).fit(small_undirected))
            for mode in ("sequential", "jacobi")}


@pytest.mark.parametrize("mode", ["sequential", "jacobi"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_chunked_fit_matches_seed_within_tolerance(small_undirected,
                                                   seed_models, mode,
                                                   workers):
    chunked = _embeddings(NRP(dim=16, seed=0, update_mode=mode, ell2=4,
                              chunk_size=32, workers=workers,
                              ).fit(small_undirected))
    assert _max_diff(chunked, seed_models[mode]) <= PARITY_TOL


@pytest.mark.parametrize("mode", ["sequential", "jacobi"])
def test_chunked_fit_bit_identical_across_worker_counts(small_undirected,
                                                        mode):
    runs = [_embeddings(NRP(dim=16, seed=0, update_mode=mode, ell2=3,
                            chunk_size=32, workers=w).fit(small_undirected))
            for w in (1, 2, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0][0], other[0])
        assert np.array_equal(runs[0][1], other[1])


def test_default_fit_is_bit_identical_across_runs(small_undirected,
                                                  seed_models):
    """Refitting with the same seed reproduces the embeddings exactly."""
    again = _embeddings(NRP(dim=16, seed=0, ell2=4).fit(small_undirected))
    assert np.array_equal(again[0], seed_models["sequential"][0])
    assert np.array_equal(again[1], seed_models["sequential"][1])


def test_chunked_jacobi_is_bit_identical_to_seed_jacobi(small_undirected,
                                                        seed_models):
    """Jacobi is row-parallel, so chunking does not even reassociate."""
    chunked = _embeddings(NRP(dim=16, seed=0, update_mode="jacobi", ell2=4,
                              chunk_size=32, workers=2).fit(small_undirected))
    assert np.array_equal(chunked[0], seed_models["jacobi"][0])
    assert np.array_equal(chunked[1], seed_models["jacobi"][1])


@pytest.mark.parametrize("chunk_size", [7, 32, 1000])
def test_parity_holds_across_chunk_grids(small_undirected, seed_models,
                                         chunk_size):
    chunked = _embeddings(NRP(dim=16, seed=0, ell2=4, chunk_size=chunk_size,
                              ).fit(small_undirected))
    assert _max_diff(chunked, seed_models["sequential"]) <= PARITY_TOL


def test_parity_on_directed_graph_with_dangling_nodes():
    from repro.graph import from_edges
    rng = np.random.default_rng(5)
    n = 90
    src = rng.integers(0, n - 5, 400)        # last 5 nodes are dangling
    dst = rng.integers(0, n, 400)
    g = from_edges(n, src, dst, directed=True)
    assert np.any(g.out_degrees == 0)
    seed = _embeddings(NRP(dim=12, seed=3, ell2=3).fit(g))
    for workers in (1, 2):
        chunked = _embeddings(NRP(dim=12, seed=3, ell2=3, chunk_size=16,
                                  workers=workers).fit(g))
        assert _max_diff(chunked, seed) <= PARITY_TOL


def test_chunked_approx_ppr_stage_is_bit_identical(small_undirected):
    """The sparse-product stages never reassociate: exact equality."""
    base = approx_ppr_embeddings(small_undirected,
                                 ApproxPPRConfig(k_prime=8, seed=0))
    for chunk_size, workers in ((16, 1), (50, 2), (None, 4)):
        x, y = approx_ppr_embeddings(
            small_undirected,
            ApproxPPRConfig(k_prime=8, seed=0, chunk_size=chunk_size,
                            workers=workers))
        assert np.array_equal(x, base[0])
        assert np.array_equal(y, base[1])


def test_chunked_approx_ppr_embedder_matches_seed(small_directed):
    base = ApproxPPREmbedder(dim=16, seed=1).fit(small_directed)
    chunked = ApproxPPREmbedder(dim=16, seed=1, chunk_size=33,
                                workers=2).fit(small_directed)
    assert np.array_equal(chunked.forward_, base.forward_)
    assert np.array_equal(chunked.backward_, base.backward_)


def test_chunked_rsvd_backend_matches_seed(small_undirected):
    base = _embeddings(NRP(dim=16, seed=0, svd="rsvd", ell2=2,
                           ).fit(small_undirected))
    chunked = _embeddings(NRP(dim=16, seed=0, svd="rsvd", ell2=2,
                              chunk_size=40, workers=2).fit(small_undirected))
    assert _max_diff(chunked, base) <= PARITY_TOL


def test_learned_weights_track_seed(small_undirected):
    seed_model = NRP(dim=16, seed=0, ell2=4).fit(small_undirected)
    chunked_model = NRP(dim=16, seed=0, ell2=4, chunk_size=32,
                        workers=2).fit(small_undirected)
    assert np.abs(seed_model.w_fwd_ - chunked_model.w_fwd_).max() <= PARITY_TOL
    assert np.abs(seed_model.w_bwd_ - chunked_model.w_bwd_).max() <= PARITY_TOL
