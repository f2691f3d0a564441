"""Tests for IncrementalPPR: local sketch repair vs. ground truth.

The documented semantics (see the module docstring of
``repro.streaming.incremental``): a refresh drives the retained iterate
toward the *fixed point* of ``x = (1 - alpha) P' x + x1'`` within the
frozen SVD basis, pruning residues below ``tol`` (final-embedding
units). The tests pin (a) exact no-op on zero deltas, (b) convergence
to an independently computed fixed point after deltas, (c) the
truncation-tail tolerance against the cold ``ell1``-truncated path on
an *unchanged* basis, and (d) staleness accounting.
"""

import numpy as np
import pytest

from repro import NRP
from repro.core import ApproxPPRConfig, approx_ppr_state
from repro.errors import ParameterError, ReproError
from repro.graph import add_arcs, from_edges, remove_arcs
from repro.streaming import DeltaGraph, IncrementalPPR, changed_rows

CFG = dict(k_prime=8, alpha=0.15, ell1=20, eps=0.2, svd="bksvd", seed=0)


def _fixed_point(graph, x1, alpha, iters=300):
    """Reference: iterate x = (1 - alpha) P x + x1 to stationarity."""
    p = graph.transition_matrix()
    x = np.zeros_like(x1)
    for _ in range(iters):
        x = (1.0 - alpha) * (p @ x) + x1
    return x


@pytest.fixture(scope="module")
def base(small_undirected):
    return small_undirected


@pytest.fixture()
def inc(base):
    return IncrementalPPR(base, ApproxPPRConfig(**CFG), tol=1e-12)


# ---------------------------------------------------------------- helpers
def test_changed_rows(base):
    g = remove_arcs(base, [0], [base.out_neighbors(0)[0]])
    rows = changed_rows(base, g)
    assert set(rows.tolist()) == {0, int(base.out_neighbors(0)[0])}
    assert len(changed_rows(base, base)) == 0


def test_changed_rows_size_mismatch(base, tiny_directed):
    with pytest.raises(ParameterError, match="node counts"):
        changed_rows(base, tiny_directed)


# ---------------------------------------------------------------- refresh
def test_zero_delta_refresh_is_noop(inc, base):
    before = inc.x_iter.copy()
    stats = inc.refresh(base, np.empty(0, dtype=np.int64))
    assert stats["touched"] == 0 and stats["sweeps"] == 0
    np.testing.assert_array_equal(inc.x_iter, before)


def test_refresh_matches_exact_residue_series(inc, base):
    """The repair equals the closed-form residue propagation series.

    Refresh seeds ``r = (map_new(x_old) - x_old)`` on the touched rows
    and pushes it through ``sum_i ((1 - alpha) P')^i r``; with a tight
    tolerance the result must match that series computed densely.
    Untouched rows keep their truncated-tail semantics by design — the
    global fixed point is NOT the reference (see the tail-bound test).
    """
    dg = DeltaGraph(base)
    rng = np.random.default_rng(3)
    added = []
    while len(added) < 15:
        u, v = rng.integers(0, base.num_nodes, 2)
        if u != v and not base.has_edge(u, v) and (u, v) not in added \
                and (v, u) not in added:
            added.append((int(u), int(v)))
    dg.add_edges([u for u, _ in added], [v for _, v in added])
    src, dst = base.arcs()
    dg.remove_edges(src[:3], dst[:3])
    touched = dg.touched_nodes()
    new_graph = dg.compact()

    x_old = inc.x_iter.copy()
    x1_old = inc.x1.copy()
    stats = inc.refresh(new_graph, touched, max_sweeps=400)
    assert stats["touched"] == len(touched)
    assert stats["sweeps"] > 0

    # dense reference: repaired x1, seeded residue, geometric series
    alpha = CFG["alpha"]
    ref_inc = IncrementalPPR.__new__(IncrementalPPR)  # reuse _repair_x1
    ref_inc.graph = base
    ref_inc.x1 = x1_old
    ref_inc.v_scaled = inc.v_scaled
    ref_inc.arcs_changed_since_basis = 0
    ref_inc._repair_x1(new_graph, touched)
    p_new = new_graph.transition_matrix()
    seed = np.zeros_like(x_old)
    seed[touched] = ((1.0 - alpha) * (p_new[touched] @ x_old)
                     + ref_inc.x1[touched]) - x_old[touched]
    acc = seed.copy()
    term = seed
    for _ in range(300):
        term = (1.0 - alpha) * (p_new @ term)
        acc += term
    ref = x_old + acc
    scale = alpha * (1.0 - alpha)
    assert np.abs(inc.x_iter - ref).max() * scale < 1e-9
    np.testing.assert_allclose(inc.x1, ref_inc.x1, rtol=1e-12, atol=1e-15)


def test_refresh_x1_matches_identity(inc, base):
    """Repaired x1 rows equal (A'[v] @ v_scaled) / d'(v) exactly."""
    dg = DeltaGraph(base)
    dg.add_edges([0], [base.num_nodes - 1]) if not base.has_edge(
        0, base.num_nodes - 1) else dg.remove_edges([0],
                                                    [base.out_neighbors(0)[0]])
    touched = dg.touched_nodes()
    new_graph = dg.compact()
    # expected from the identity, built on the OLD x1 numerators
    expected = {}
    for v in touched.tolist():
        numer = base.out_degrees[v] * inc.x1[v].copy()
        old_nb = set(base.out_neighbors(v).tolist())
        new_nb = set(new_graph.out_neighbors(v).tolist())
        for w in sorted(new_nb - old_nb):
            numer += inc.v_scaled[w]
        for w in sorted(old_nb - new_nb):
            numer -= inc.v_scaled[w]
        d = new_graph.out_degrees[v]
        expected[v] = numer / d if d else np.zeros_like(numer)
    inc.refresh(new_graph, touched)
    for v, row in expected.items():
        np.testing.assert_allclose(inc.x1[v], row, rtol=1e-12, atol=1e-15)


def test_fixed_point_vs_truncated_tail_bound(base):
    """Fixed-point and ell1-truncated semantics differ by the documented
    geometric tail — on an unchanged graph, refresh-from-scratch-seeded
    state stays within (1 - alpha)^ell1 / alpha of the cold iterate."""
    cfg = ApproxPPRConfig(**CFG)
    state = approx_ppr_state(base, cfg)
    ref = _fixed_point(base, state.x1, cfg.alpha)
    tail = (1.0 - cfg.alpha) ** cfg.ell1 / cfg.alpha
    bound = tail * np.abs(state.x1).max() * 1.5
    assert np.abs(ref - state.x_iter).max() <= bound


def test_refresh_rejects_node_growth(inc):
    bigger = from_edges(inc.num_nodes + 1, [0], [1], directed=False)
    with pytest.raises(ReproError, match="fixed node set"):
        inc.refresh(bigger)


def test_refresh_computes_touched_when_omitted(inc, base):
    u = 0
    w = int(base.out_neighbors(u)[0])
    new_graph = remove_arcs(base, [u], [w])
    stats = inc.refresh(new_graph)
    assert stats["touched"] == 2        # both endpoints (undirected)


def test_staleness_accounting_and_rebase(inc, base):
    u, w = 0, int(base.out_neighbors(0)[0])
    new_graph = remove_arcs(base, [u], [w])
    inc.refresh(new_graph)
    assert inc.arcs_changed_since_basis == 2
    assert 0 < inc.basis_staleness < 1e-2
    fresh = approx_ppr_state(new_graph, ApproxPPRConfig(**CFG))
    inc.rebase(fresh, new_graph)
    assert inc.basis_staleness == 0.0
    np.testing.assert_array_equal(inc.x_iter, fresh.x_iter)


def test_state_arrays_are_float64_after_construction_and_rebase(base):
    """The float32 factor state is cast once, at construction and at
    rebase; the repair never writes into the state it was given."""
    cfg = ApproxPPRConfig(**CFG)
    state = approx_ppr_state(base, cfg)
    assert state.x1.dtype == np.float32
    names = ("x1", "x_iter", "y", "v_scaled")
    frozen = {name: getattr(state, name).copy() for name in names}
    inc = IncrementalPPR(base, cfg, state=state)

    def assert_adopted(source):
        for name in names:
            assert getattr(inc, name).dtype == np.float64, name
            np.testing.assert_array_equal(getattr(inc, name),
                                          getattr(source, name))

    assert_adopted(state)
    new_graph = remove_arcs(base, [0], [base.out_neighbors(0)[0]])
    inc.refresh(new_graph)
    for name in names:
        np.testing.assert_array_equal(getattr(state, name), frozen[name])
    fresh = approx_ppr_state(new_graph, cfg)
    inc.rebase(fresh, new_graph)
    assert_adopted(fresh)


def test_nrp_base_factors_match_incremental_embeddings(base):
    """A ``keep_factor_state`` fit's base X and Y are what IncrementalPPR
    reports for the same state, bit for bit."""
    model = NRP(dim=2 * CFG["k_prime"], ell2=1, seed=0,
                keep_factor_state=True).fit(base)
    inc = IncrementalPPR(base, ApproxPPRConfig(**CFG),
                         state=model.factor_state_)
    x, y = inc.embeddings()
    np.testing.assert_array_equal(model.base_forward_, x)
    np.testing.assert_array_equal(model.base_backward_, y)


def test_tol_prunes_propagation(base):
    """A loose tolerance stops the frontier early; a tight one pushes on."""
    cfg = ApproxPPRConfig(**CFG)
    u, w = 0, int(base.out_neighbors(0)[0])
    new_graph = remove_arcs(base, [u], [w])
    loose = IncrementalPPR(base, cfg, tol=1e-2)
    tight = IncrementalPPR(base, cfg, tol=1e-12)
    s_loose = loose.refresh(new_graph)
    s_tight = tight.refresh(new_graph)
    assert s_loose["sweeps"] <= s_tight["sweeps"]
    assert sum(s_loose["frontier"]) <= sum(s_tight["frontier"])


def test_invalid_construction(base):
    cfg = ApproxPPRConfig(**CFG)
    with pytest.raises(ParameterError, match="tol"):
        IncrementalPPR(base, cfg, tol=0.0)
    state = approx_ppr_state(base, cfg)
    smaller = from_edges(3, [0, 1], [1, 2], directed=False)
    with pytest.raises(ParameterError, match="rows"):
        IncrementalPPR(smaller, cfg, state=state)
