"""repro-fit: edge list in, queryable serving store out."""

import json

import numpy as np
import pytest

from repro import NRP
from repro.cli_fit import build_parser, main
from repro.graph import powerlaw_community
from repro.graph.build import write_edge_list
from repro.io import load_embeddings
from repro.serving import EmbeddingStore
from repro.serving.cli import main as serve_main


@pytest.fixture(scope="module")
def edge_list_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit") / "graph.txt"
    graph, _ = powerlaw_community(150, 700, num_communities=3, seed=2)
    write_edge_list(graph, path)
    return path, graph


def test_fit_exports_queryable_store(edge_list_file, tmp_path, capsys):
    path, graph = edge_list_file
    store_dir = tmp_path / "store"
    rc = main([str(path), str(store_dir), "--dim", "16", "--ell2", "2",
               "--seed", "3"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["num_nodes"] == graph.num_nodes
    assert summary["dim"] == 16

    store = EmbeddingStore.open(store_dir)
    assert store.num_nodes == graph.num_nodes
    assert store.directional
    assert store.metadata["seed"] == 3
    ids, scores = store.to_serving().topk([0, 1], k=5)
    assert ids.shape == (2, 5)
    assert np.all(np.diff(scores, axis=1) <= 1e-12)


def test_fit_store_matches_in_process_fit(edge_list_file, tmp_path, capsys):
    path, graph = edge_list_file
    store_dir = tmp_path / "store"
    rc = main([str(path), str(store_dir), "--dim", "16", "--ell2", "2",
               "--seed", "7"])
    assert rc == 0
    capsys.readouterr()
    model = NRP(dim=16, ell2=2, seed=7).fit(graph)
    store = EmbeddingStore.open(store_dir)
    np.testing.assert_array_equal(np.asarray(store.forward_),
                                  model.forward_)
    np.testing.assert_array_equal(np.asarray(store.backward_),
                                  model.backward_)


def test_fit_bundle_roundtrip_and_serve_query(edge_list_file, tmp_path,
                                              capsys):
    path, _ = edge_list_file
    store_dir = tmp_path / "store"
    bundle = tmp_path / "run.npz"
    rc = main([str(path), str(store_dir), "--dim", "8", "--ell2", "1",
               "--bundle", str(bundle), "--name", "demo"])
    assert rc == 0
    capsys.readouterr()
    loaded = load_embeddings(bundle)
    assert loaded.name == "demo"
    assert loaded.metadata["num_edges"] > 0

    rc = serve_main(["query", str(store_dir), "--nodes", "0,3", "-k", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["node"] == 0


def test_fit_approxppr_method(edge_list_file, tmp_path, capsys):
    path, _ = edge_list_file
    rc = main([str(path), str(tmp_path / "s"), "--dim", "8",
               "--method", "approxppr"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["name"] == "ApproxPPR"


def test_missing_edge_list_is_reported(tmp_path, capsys):
    rc = main([str(tmp_path / "nope.txt"), str(tmp_path / "s")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_empty_edge_list_is_reported(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    rc = main([str(empty), str(tmp_path / "s")])
    assert rc == 2
    assert "no nodes" in capsys.readouterr().err


def test_invalid_hyperparameters_are_reported(edge_list_file, tmp_path,
                                              capsys):
    path, _ = edge_list_file
    for name in ("lam", "eps"):
        store_dir = tmp_path / name
        rc = main([str(path), str(store_dir), "--dim", "16",
                   f"--{name}", "nan"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-fit: error:") and name in err
        assert not store_dir.exists()


def test_parser_defaults():
    args = build_parser().parse_args(["g.txt", "out"])
    assert args.dim == 128 and args.update_mode == "sequential"
    assert not hasattr(args, "workers") and not hasattr(args, "chunk_size")
    assert args.metrics_json is None and args.log_level is None


def test_fit_metrics_json_snapshot(edge_list_file, tmp_path, capsys):
    from repro import obs
    path, _ = edge_list_file
    snap_path = tmp_path / "metrics" / "fit.json"
    try:
        rc = main([str(path), str(tmp_path / "store"), "--dim", "8",
                   "--ell2", "1", "--seed", "3",
                   "--metrics-json", str(snap_path),
                   "--log-level", "warning"])
    finally:
        obs.set_enabled(False)
        obs.reset()
    assert rc == 0
    capsys.readouterr()
    snap = json.loads(snap_path.read_text())
    # the fit pipeline leaves its span tree and span metrics behind
    span_names = {c["labels"]["name"] for c in snap["counters"]
                  if c["name"] == "span_total"}
    assert {"nrp.fit", "approx_ppr.svd", "nrp.reweighting"} <= span_names
    [tree] = snap["traces"]
    assert tree["name"] == "nrp.fit"
    assert {c["name"] for c in tree["children"]} >= {"nrp.reweighting"}
    # the CLI folds its printed summary into the snapshot
    assert snap["summary"]["dim"] == 8
