"""Sorted-key arc-set operations against the hash-based versions they replace.

``add_arcs``, ``remove_arcs``, ``arc_index_of``, ``DeltaGraph``'s delta
validation and ``changed_rows`` locate arcs by a binary search over the
sorted CSR arc keys. The oracles below are the earlier implementations,
kept verbatim: ``np.isin`` / ``np.unique`` / ``np.setdiff1d`` over the
whole key set, a per-arc row search, and one ``Graph.has_arc`` call per
logged delta. Outputs must match bit for bit (values and dtypes), and
every rejected request must raise the same exception with the same
message.

The ``remove_arcs`` and ``arc_index_of`` oracles alias keys when an
endpoint lies outside ``[0, n)`` (``(0, n + 1)`` has the key of
``(1, 1)``), so they are compared on in-range requests only; the new
range checks have their own tests in ``tests/graph/test_ops_splits.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graph import (Graph, add_arcs, arc_index_of, from_edges,
                         remove_arcs)
from repro.streaming import DeltaGraph, changed_rows


# ------------------------------------------------------------------ oracles
def _add_arcs_isin(graph: Graph, sources, destinations) -> Graph:
    src = np.asarray(sources, dtype=np.int64).ravel()
    dst = np.asarray(destinations, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ParameterError("sources and destinations must have equal length")
    n = graph.num_nodes
    if len(src) == 0:
        return Graph(graph.indptr.copy(), graph.indices.copy(),
                     directed=graph.directed)
    if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
        raise ParameterError(
            f"arc endpoint out of range [0, {n}) in add_arcs")
    if np.any(src == dst):
        raise ParameterError("add_arcs rejects self loops")
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    new_keys = src * np.int64(n) + dst
    uniq = np.unique(new_keys)
    if len(uniq) != len(new_keys):
        raise ParameterError("duplicate arcs in add_arcs request")
    all_src, all_dst = graph.arcs()
    existing = all_src * np.int64(n) + all_dst
    clash = np.isin(uniq, existing, assume_unique=False)
    if clash.any():
        key = int(uniq[clash][0])
        raise ParameterError(
            f"arc ({key // n}, {key % n}) already present in add_arcs")
    merged = np.concatenate([existing, new_keys])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    out_src = merged // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_src, minlength=n), out=indptr[1:])
    return Graph(indptr, merged % n, directed=graph.directed)


def _remove_arcs_isin(graph: Graph, sources, destinations) -> Graph:
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(destinations, dtype=np.int64)
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    n = graph.num_nodes
    drop = np.unique(src * np.int64(n) + dst)
    all_src, all_dst = graph.arcs()
    keys = all_src * np.int64(n) + all_dst
    keep = ~np.isin(keys, drop, assume_unique=False)
    kept_src, kept_dst = all_src[keep], all_dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_src, minlength=n), out=indptr[1:])
    return Graph(indptr, kept_dst, directed=graph.directed)


def _arc_index_of_loop(graph: Graph, sources, destinations) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(destinations, dtype=np.int64)
    out = np.full(len(src), -1, dtype=np.int64)
    starts = graph.indptr[src]
    ends = graph.indptr[src + 1]
    for i in range(len(src)):
        row = graph.indices[starts[i]:ends[i]]
        j = np.searchsorted(row, dst[i])
        if j < len(row) and row[j] == dst[i]:
            out[i] = starts[i] + j
    return out


def _changed_rows_setdiff(old: Graph, new: Graph) -> np.ndarray:
    n = old.num_nodes
    old_src, old_dst = old.arcs()
    new_src, new_dst = new.arcs()
    old_keys = old_src * np.int64(n) + old_dst
    new_keys = new_src * np.int64(n) + new_dst
    gone = np.setdiff1d(old_keys, new_keys, assume_unique=True)
    born = np.setdiff1d(new_keys, old_keys, assume_unique=True)
    return np.unique(np.concatenate([gone, born]) // n)


class _HasArcDeltaGraph(DeltaGraph):
    """``DeltaGraph`` validating each delta with one ``has_arc`` call."""

    def _apply(self, sources, destinations, sign: int) -> None:
        src, dst = self._arc_keys(sources, destinations)
        n = self.base.num_nodes
        keys = src * np.int64(n) + dst
        if len(np.unique(keys)) != len(keys):
            raise ParameterError("duplicate arcs in one delta call")
        word = "insert" if sign > 0 else "delete"
        for key in keys.tolist():
            net = self._pending.get(key, 0)
            exists = (self.base.has_arc(key // n, key % n)
                      if net == 0 else net > 0)
            if sign > 0 and exists:
                raise ParameterError(
                    f"cannot insert arc ({key // n}, {key % n}): "
                    f"already present")
            if sign < 0 and not exists:
                raise ParameterError(
                    f"cannot delete arc ({key // n}, {key % n}): "
                    f"not present ({word} rejected)")
        for key, u in zip(keys.tolist(), src.tolist()):
            net = self._pending.get(key, 0) + sign
            if net == 0:
                self._pending.pop(key, None)
            else:
                self._pending[key] = net
            self._touched.add(u)


# --------------------------------------------------------------- helpers
def _outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except ParameterError as exc:
        return ("raised", type(exc), str(exc))


def _assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.directed == want.directed
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b), name


def _assert_same_outcome(got, want) -> None:
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got[1:] == want[1:]
    elif isinstance(want[1], Graph):
        _assert_same_graph(got[1], want[1])
    else:
        assert got[1].dtype == want[1].dtype
        assert np.array_equal(got[1], want[1])


def _fresh(graph: Graph) -> Graph:
    """A copy whose arrays the call under test could not have aliased."""
    return Graph(graph.indptr.copy(), graph.indices.copy(),
                 directed=graph.directed)


# ------------------------------------------------------------- strategies
@st.composite
def graphs(draw, max_nodes: int = 12) -> Graph:
    """Directed or undirected graphs, including empty ones (n = 0 too)."""
    directed = draw(st.booleans())
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return from_edges(0, [], [], directed=directed)
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return from_edges(n, [u for u, _ in pairs], [v for _, v in pairs],
                      directed=directed)


def _pairs(draw, graph: Graph, *, lo: int, hi: int, max_size: int = 8,
           logged=()):
    """A request mixing stored arcs, absent pairs and (maybe) bad ids."""
    n = graph.num_nodes
    src, dst = graph.arcs()
    stored = list(zip(src.tolist(), dst.tolist()))
    options = [st.tuples(st.integers(lo, hi), st.integers(lo, hi))]
    if logged:
        options.append(st.sampled_from(logged))
    if stored:
        options.append(st.sampled_from(stored))
        options.append(st.sampled_from(stored).map(lambda p: (p[1], p[0])))
    absent = [(u, v) for u in range(n) for v in range(n)
              if u != v and not graph.has_arc(u, v)]
    if absent:
        options.append(st.sampled_from(absent))
    pairs = draw(st.lists(st.one_of(options), max_size=max_size))
    return (np.array([u for u, _ in pairs], dtype=np.int64),
            np.array([v for _, v in pairs], dtype=np.int64))


@st.composite
def add_requests(draw):
    graph = draw(graphs())
    n = graph.num_nodes
    src, dst = _pairs(draw, graph, lo=-1, hi=n)
    return graph, src, dst


@st.composite
def in_range_requests(draw):
    graph = draw(graphs())
    n = graph.num_nodes
    if n == 0:
        return graph, np.empty(0, np.int64), np.empty(0, np.int64)
    src, dst = _pairs(draw, graph, lo=0, hi=n - 1)
    return graph, src, dst


# ------------------------------------------------------------------ tests
@settings(max_examples=300, deadline=None)
@given(add_requests())
def test_add_arcs_matches_isin_version(case):
    graph, src, dst = case
    want = _outcome(_add_arcs_isin, graph, src, dst)
    fresh = _fresh(graph)
    got = _outcome(add_arcs, fresh, src, dst)
    _assert_same_outcome(got, want)
    if got[0] == "ok":
        assert not np.shares_memory(got[1].indices, fresh.indices)
        assert not np.shares_memory(got[1].indptr, fresh.indptr)
    _assert_same_graph(fresh, graph)              # input left untouched


@settings(max_examples=300, deadline=None)
@given(in_range_requests())
def test_remove_arcs_matches_isin_version(case):
    graph, src, dst = case
    fresh = _fresh(graph)
    got = remove_arcs(fresh, src, dst)
    _assert_same_graph(got, _remove_arcs_isin(graph, src, dst))
    assert not np.shares_memory(got.indices, fresh.indices)
    assert not np.shares_memory(got.indptr, fresh.indptr)
    _assert_same_graph(fresh, graph)


@settings(max_examples=200, deadline=None)
@given(in_range_requests())
def test_arc_index_of_matches_row_search(case):
    graph, src, dst = case
    got = arc_index_of(graph, src, dst)
    want = _arc_index_of_loop(graph, src, dst)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(in_range_requests(), st.data())
def test_changed_rows_matches_setdiff_version(case, data):
    graph, src, dst = case
    # a second snapshot: some requested arcs removed, others added
    new = remove_arcs(graph, src, dst)
    if graph.num_nodes:
        add_src, add_dst = _pairs(data.draw, new, lo=0,
                                  hi=graph.num_nodes - 1)
        keep = add_src != add_dst
        add_src, add_dst = add_src[keep], add_dst[keep]
        if not graph.directed:
            add_src, add_dst = (np.minimum(add_src, add_dst),
                                np.maximum(add_src, add_dst))
        keys = np.unique(add_src * graph.num_nodes + add_dst)
        add_src, add_dst = keys // graph.num_nodes, keys % graph.num_nodes
        fresh = arc_index_of(new, add_src, add_dst) < 0
        new = add_arcs(new, add_src[fresh], add_dst[fresh])
    for a, b in ((graph, new), (new, graph), (graph, graph)):
        got = changed_rows(a, b)
        want = _changed_rows_setdiff(a, b)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


_delta_call = st.tuples(
    st.sampled_from(["add", "remove", "compact"]),
    st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)),
             max_size=5))


@settings(max_examples=200, deadline=None)
@given(graphs(max_nodes=10), st.lists(_delta_call, max_size=10), st.data())
def test_delta_graph_matches_has_arc_version(base, calls, data):
    new, old = DeltaGraph(base), _HasArcDeltaGraph(base)
    n = base.num_nodes
    for kind, pairs in calls:
        if kind == "compact":
            _assert_same_graph(new.compact(), old.compact())
            continue
        if n and data.draw(st.booleans()):
            # favour in-range pairs and arcs the log knows about
            logged_src, logged_dst, _ = new.pending_arcs()
            src, dst = _pairs(data.draw, new.base, lo=0, hi=n - 1,
                              max_size=5, logged=list(zip(
                                  logged_src.tolist(), logged_dst.tolist())))
        else:
            src = np.array([u for u, _ in pairs], dtype=np.int64)
            dst = np.array([v for _, v in pairs], dtype=np.int64)
        pending, touched = new.num_pending, new.touched_nodes()
        method = "add_edges" if kind == "add" else "remove_edges"
        got = _outcome(getattr(new, method), src, dst)
        assert got == _outcome(getattr(old, method), src, dst)
        if got[0] == "raised":
            # a rejected call leaves the log exactly as it was
            assert new.num_pending == pending
            assert np.array_equal(new.touched_nodes(), touched)
        assert new.num_pending == old.num_pending
        assert np.array_equal(new.touched_nodes(), old.touched_nodes())
        for a, b in zip(new.pending_arcs(), old.pending_arcs()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    _assert_same_graph(new.compact(), old.compact())


# ------------------------------------------------- every error, named
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("src, dst, match", [
    ([1, 1], [3, 3], "duplicate"),
    ([0], [1], "already present"),
    ([2], [2], "self loop"),
    ([0], [9], "out of range"),
    ([-1], [0], "out of range"),
    ([0, 1], [3], "equal length"),
])
def test_add_arcs_errors_match_isin_version(fig1, directed, src, dst, match):
    graph = Graph(fig1.indptr, fig1.indices, directed=directed)
    want = _outcome(_add_arcs_isin, graph, src, dst)
    assert want[0] == "raised" and match in want[2]
    _assert_same_outcome(_outcome(add_arcs, graph, src, dst), want)


def test_add_arcs_clash_names_smallest_key(fig1):
    # all three edges are stored, the last one asked for in reverse: the
    # error names the smallest clashing key, not the first in the request
    request = ([8, 2, 1], [7, 3, 0])
    want = _outcome(_add_arcs_isin, fig1, *request)
    got = _outcome(add_arcs, fig1, *request)
    _assert_same_outcome(got, want)
    assert got[2] == "arc (0, 1) already present in add_arcs"


@pytest.mark.parametrize("method, src, dst", [
    ("add_edges", [1, 1], [3, 3]),                # duplicate
    ("add_edges", [1, 0, 2], [3, 1, 8]),          # second arc clashes
    ("add_edges", [1, 6], [3, 2]),                # clashes with the log
    ("add_edges", [4], [4]),                      # self loop
    ("add_edges", [0], [99]),                     # out of range
    ("add_edges", [0, 1], [3]),                   # length
    ("remove_edges", [0, 1, 2], [1, 3, 8]),       # second arc absent
    ("remove_edges", [1], [1]),                   # self loop
])
def test_delta_graph_errors_match_has_arc_version(fig1, method, src, dst):
    new, old = DeltaGraph(fig1), _HasArcDeltaGraph(fig1)
    new.add_edges([2], [6])
    old.add_edges([2], [6])
    want = _outcome(getattr(old, method), src, dst)
    assert want[0] == "raised"
    assert _outcome(getattr(new, method), src, dst) == want
    assert new.num_pending == old.num_pending == 2
    assert np.array_equal(new.touched_nodes(), [2, 6])
