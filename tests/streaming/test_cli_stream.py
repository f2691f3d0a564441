"""Tests for the repro-stream command line interface."""

import json

import numpy as np
import pytest

from repro.cli_stream import main, parse_delta_line
from repro.graph import powerlaw_community, write_edge_list
from repro.serving import list_versions, open_current


@pytest.fixture(scope="module")
def stream_inputs(tmp_path_factory):
    """Base edge list + a delta file of genuinely new edges."""
    tmp = tmp_path_factory.mktemp("stream")
    graph, _ = powerlaw_community(80, 400, num_communities=4, seed=3)
    base_path = tmp / "base.txt"
    write_edge_list(graph, base_path)
    rng = np.random.default_rng(17)
    new = []
    while len(new) < 30:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
        if u != v and not graph.has_edge(u, v) \
                and (u, v) not in new and (v, u) not in new:
            new.append((u, v))
    old_src, old_dst = graph.edges()
    delta_path = tmp / "deltas.txt"
    with open(delta_path, "w", encoding="utf-8") as fh:
        fh.write("# streaming deltas\n")
        for u, v in new[:10]:
            fh.write(f"{u} {v}\n")               # bare lines = inserts
        for u, v in new[10:]:
            fh.write(f"+ {u} {v}\n")
        fh.write(f"- {old_src[0]} {old_dst[0]}\n")
        fh.write(f"- {old_src[1]} {old_dst[1]}\n")
    return graph, base_path, delta_path, new


def test_parse_delta_line():
    assert parse_delta_line("3 5", 1) == (1, 3, 5)
    assert parse_delta_line("+ 3 5", 1) == (1, 3, 5)
    assert parse_delta_line("- 3 5", 1) == (-1, 3, 5)
    assert parse_delta_line("# comment", 1) is None
    assert parse_delta_line("   ", 1) is None
    from repro.errors import ReproError
    with pytest.raises(ReproError, match="line 7"):
        parse_delta_line("3", 7)
    with pytest.raises(ReproError, match="non-integer"):
        parse_delta_line("+ a b", 2)


def test_stream_end_to_end(stream_inputs, tmp_path, capsys):
    graph, base_path, delta_path, new = stream_inputs
    root = tmp_path / "root"
    rc = main([str(base_path), str(delta_path), str(root),
               "--dim", "16", "--ell2", "2", "--batch-size", "16",
               "--drift-threshold", "0", "--max-staleness", "0"])
    assert rc == 0
    events = [json.loads(line)
              for line in capsys.readouterr().out.strip().splitlines()]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "fit" and kinds[1] == "publish"
    assert kinds[-1] == "done"
    batches = [e for e in events if e["event"] == "batch"]
    # 32 deltas / batch-size 16 -> exactly two batches
    assert len(batches) == 2
    assert batches[0]["version"] == 2 and batches[1]["version"] == 3
    done = events[-1]
    assert done["batches"] == 2
    assert done["num_edges"] == graph.num_edges + 30 - 2

    # the store root holds three complete versions; CURRENT -> newest
    assert list_versions(root) == [1, 2, 3]
    store = open_current(root)
    assert store.version == 3
    assert store.num_nodes == graph.num_nodes
    assert store.metadata["stream_batches"] == 2
    # the freshest version scores the newly inserted edges
    u, v = new[0]
    engine = store.to_serving(cache_size=0)
    assert engine.score([u], [v])[0] != 0.0


def test_stream_publishes_sharded_versions(stream_inputs, tmp_path,
                                           capsys):
    from repro.serving import ShardedEmbeddingStore, ShardedQueryEngine
    graph, base_path, delta_path, new = stream_inputs
    root = tmp_path / "root"
    rc = main([str(base_path), str(delta_path), str(root),
               "--dim", "16", "--ell2", "2", "--batch-size", "16",
               "--drift-threshold", "0", "--max-staleness", "0",
               "--shards", "3"])
    assert rc == 0
    capsys.readouterr()
    assert list_versions(root) == [1, 2, 3]
    store = open_current(root)
    assert isinstance(store, ShardedEmbeddingStore)
    assert store.version == 3 and store.num_shards == 3
    assert store.metadata["stream_batches"] == 2
    engine = store.to_serving(cache_size=0)
    assert isinstance(engine, ShardedQueryEngine)
    u, v = new[0]
    assert engine.score([u], [v])[0] != 0.0


def test_stream_rejects_bad_shards(stream_inputs, tmp_path, capsys):
    graph, base_path, delta_path, new = stream_inputs
    rc = main([str(base_path), str(delta_path), str(tmp_path / "r"),
               "--shards", "0"])
    assert rc == 2
    assert "--shards" in capsys.readouterr().err


def test_stream_keep_versions_and_max_batches(stream_inputs, tmp_path,
                                              capsys):
    _, base_path, delta_path, _ = stream_inputs
    root = tmp_path / "root"
    rc = main([str(base_path), str(delta_path), str(root),
               "--dim", "16", "--ell2", "2", "--batch-size", "8",
               "--max-batches", "2", "--keep-versions", "1"])
    assert rc == 0
    events = [json.loads(line)
              for line in capsys.readouterr().out.strip().splitlines()]
    assert [e["event"] for e in events if e["event"] == "batch"] \
        == ["batch", "batch"]
    assert list_versions(root) == [3]
    assert open_current(root).version == 3


def test_stream_bad_delta_file(stream_inputs, tmp_path, capsys):
    _, base_path, _, _ = stream_inputs
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 4\n", encoding="utf-8")
    rc = main([str(base_path), str(bad), str(tmp_path / "root"),
               "--dim", "16", "--ell2", "0"])
    assert rc == 2
    assert "delta line 1" in capsys.readouterr().err


def test_stream_missing_edgelist(tmp_path, capsys):
    rc = main([str(tmp_path / "none.txt"), str(tmp_path / "d.txt"),
               str(tmp_path / "root")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_stream_delete_then_reinsert_in_one_batch(stream_inputs, tmp_path,
                                                  capsys):
    """Order-dependent sequences net out instead of crashing the stream.

    On the undirected base ``- u v`` then ``+ v u`` re-inserts the same
    edge, so it nets out like ``- u v`` then ``+ u v``.
    """
    graph, base_path, _, _ = stream_inputs
    old_src, old_dst = graph.edges()
    u, v = int(old_src[3]), int(old_dst[3])
    for i, back in enumerate((f"{u} {v}", f"{v} {u}")):
        deltas = tmp_path / f"churn{i}.txt"
        deltas.write_text(f"- {u} {v}\n+ {back}\n", encoding="utf-8")
        root = tmp_path / f"root{i}"
        rc = main([str(base_path), str(deltas), str(root),
                   "--dim", "16", "--ell2", "2", "--batch-size", "16"])
        assert rc == 0, back
        events = [json.loads(line)
                  for line in capsys.readouterr().out.strip().splitlines()]
        batch = next(e for e in events if e["event"] == "batch")
        assert batch["arc_deltas"] == 0          # netted to a no-op
        assert events[-1]["num_edges"] == graph.num_edges


def test_stream_double_insert_in_one_batch_rejected(stream_inputs, tmp_path,
                                                    capsys):
    _, base_path, _, _ = stream_inputs
    # undirected base: "+ 2 1" inserts the edge "+ 1 2" already inserted
    for i, second in enumerate(("1 2", "2 1")):
        deltas = tmp_path / f"dup{i}.txt"
        deltas.write_text(f"+ 1 2\n+ {second}\n", encoding="utf-8")
        rc = main([str(base_path), str(deltas), str(tmp_path / f"root{i}"),
                   "--dim", "16", "--ell2", "2"])
        assert rc == 2, second
        assert "twice in a row" in capsys.readouterr().err


def test_stream_metrics_json_and_interval(stream_inputs, tmp_path, capsys):
    from repro import obs
    _, base_path, delta_path, _ = stream_inputs
    snap_path = tmp_path / "stream.json"
    try:
        rc = main([str(base_path), str(delta_path), str(tmp_path / "root"),
                   "--dim", "16", "--ell2", "2", "--batch-size", "16",
                   "--metrics-json", str(snap_path),
                   "--metrics-interval", "0"])
    finally:
        obs.set_enabled(False)
        obs.reset()
    assert rc == 0
    err = capsys.readouterr().err
    # interval 0 -> a Prometheus text dump after every batch
    assert "# TYPE streaming_batches_total counter" in err
    snap = json.loads(snap_path.read_text())
    counters = {c["name"]: c["value"] for c in snap["counters"]}
    assert counters["streaming_batches_total"] == 2
    hists = {h["name"] for h in snap["histograms"]}
    assert "streaming_publish_seconds" in hists
