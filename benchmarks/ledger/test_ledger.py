"""Tests of the ledger's bookkeeping, and one slow smoke run of every
workload at tiny scale.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py``.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest

import run
from loadgen import (Sample, max_connections, percentile, poisson_schedule,
                     summarize)
from spans import Recorder, self_time, union_length

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_self_time_counts_overlapping_children_once():
    # [1, 4] and [3, 6] overlap; [8, 12] sticks out past the parent
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert union_length(children, 0.0, 10.0) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, [(2.0, 5.0), (2.0, 5.0)]) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_recorder_adopts_server_tree_and_keeps_the_trace_id():
    recorder = Recorder()
    client = recorder.add("bench.request", 100.0, 100.012, trace_id="ab" * 16)
    tree = {"name": "http.request", "duration_seconds": 0.010, "children": [
        {"name": "http.queue", "duration_seconds": 0.003},
        {"name": "http.batch", "duration_seconds": 0.005, "children": [
            {"name": "serving.engine", "duration_seconds": 0.004}]}]}
    server = recorder.adopt_tree(tree, 100.001, client)
    assert server["trace_id"] == client["trace_id"]
    assert all(s["trace_id"] == "ab" * 16 for s in recorder.spans)
    assert recorder.self_time(server) == pytest.approx(0.002)
    assert recorder.self_time(client) == pytest.approx(0.002)
    engine, = recorder.descendants(client, "serving.engine")
    assert engine["start"] == pytest.approx(100.004)
    assert recorder.roots("bench.request") == [client]


def test_percentile_interpolates_and_failures_raise_the_tail():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 25, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert math.isnan(percentile([], 50))
    assert percentile([1.0, 2.0, math.inf], 100) == math.inf
    assert percentile([1.0, math.inf], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0, math.inf], 50) == pytest.approx(2.5)


def test_summary_times_latency_from_due_and_reports_lag():
    samples = [Sample(0, due=0.000, sent=0.000, done=0.004, ok=True),
               Sample(1, due=0.010, sent=0.013, done=0.016, ok=True),
               Sample(2, due=0.020, sent=0.020, done=0.050, ok=True),
               Sample(3, due=0.030, sent=0.030, done=0.031, ok=False)]
    assert [s.lag for s in samples] == pytest.approx([0, 0.003, 0, 0])
    summary = summarize(samples, duration=2.0, limit=0.010)
    # latencies 4, 6, 30 ms and the failure at infinity; service 4, 3, 30
    assert [s.latency for s in samples][-1] == math.inf
    assert summary["p50_ms"] == pytest.approx(18.0)
    assert summary["service_p50_ms"] == pytest.approx(17.0)
    assert summary["goodput"] == pytest.approx(1.0)    # 2 within 10 ms / 2 s
    assert summary["lag_p99_ms"] == pytest.approx(
        np.percentile([0, 3, 0, 0], 99))


def test_schedule_is_seeded_and_connections_are_capped():
    a = poisson_schedule(np.random.default_rng(3), 250.0, 4.0)
    b = poisson_schedule(np.random.default_rng(3), 250.0, 4.0)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0) and a[-1] < 4.0
    assert 850 < len(a) < 1150
    assert max_connections(10_000) == os.cpu_count()
    assert max_connections(0) == 1


def test_histogram_quantile_from_differenced_scrapes():
    run.import_program()
    from serve import histogram_delta, histogram_quantile, parse_prometheus

    def text(counts, total):
        lines = ["# TYPE span_seconds histogram"]
        for shard in ("0", "1"):
            for le, cum in zip(("0.001", "0.002", "0.004", "+Inf"), counts):
                lines.append(f'span_seconds_bucket{{le="{le}",'
                             f'name="router.shard",shard="{shard}"}} {cum}')
            lines.append(f'span_seconds_sum{{name="router.shard",'
                         f'shard="{shard}"}} {total}')
            lines.append(f'span_seconds_count{{name="router.shard",'
                         f'shard="{shard}"}} {counts[-1]}')
        return parse_prometheus("\n".join(lines))

    before = text((1, 1, 1, 1), 0.001)
    after = text((1, 3, 5, 5), 0.011)
    delta = histogram_delta(before, after, "span_seconds",
                            {"name": "router.shard"})
    assert delta["count"] == 8 and delta["sum"] == pytest.approx(0.020)
    # 8 new observations over both shards: 4 in (1, 2] ms, 4 in (2, 4] ms
    assert histogram_quantile(delta, 0.5) == pytest.approx(0.002)
    assert histogram_quantile(delta, 0.75) == pytest.approx(0.003)
    empty = histogram_delta(after, after, "span_seconds")
    assert histogram_quantile(empty, 0.5) == 0.0


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"][0] == "python3" and len(spec["command"]) <= 32
    for arg in spec["command"][1:]:
        assert not arg.startswith("/") and ".." not in arg
        assert any(arg.startswith(p + "/") for p in spec["paths"])
    for path in spec["paths"]:
        assert PATH.match(path) and (run.ROOT / path).is_dir()
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in spec[key]]
    for key in ("end_to_end", "per_layer"):
        for entry in spec[key]:
            keys = {"name", "unit", "better"}
            assert set(entry) == keys | ({"bound"} if key == "end_to_end"
                                         else set())
            assert UNIT.match(entry["unit"])
            assert entry["better"] in ("lower", "higher")
            if key == "end_to_end":
                assert 0 < entry["bound"] <= 0.25
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def test_every_declared_metric_is_produced_by_the_workloads(spec):
    run.import_program()
    from serve import ServeWorkload
    from workloads import FitWorkload, StreamWorkload
    assert tuple(e["name"] for e in spec["workloads"]) == run.WORKLOADS
    assert tuple(e["name"] for e in spec["end_to_end"]) == run.END_TO_END
    measured = set(FitWorkload.LAYERS) | set(StreamWorkload.LAYERS) \
        | set(ServeWorkload.LAYERS) | {"obs.trace_overhead"}
    assert measured == {e["name"] for e in spec["per_layer"]}


def _write_runs(path, p50s, workload="serve_scalar", goodput=1.0):
    with open(path, "w", encoding="utf-8") as fh:
        for p50 in p50s:
            metrics = {name: {"value": 1.0, "unit": "1"}
                       for name in run.END_TO_END}
            metrics["latency_ms"]["value"] = p50
            metrics["goodput"]["value"] = goodput
            fh.write(json.dumps({"workload": workload, "trace": False,
                                 "correct": p50 is not None,
                                 "metrics": metrics}) + "\n")
            fh.write(json.dumps({"workload": workload, "trace": True,
                                 "correct": True, "metrics": {}}) + "\n")


def test_compare_judges_medians_by_the_bounds(tmp_path, spec, capsys):
    bound = next(e["bound"] for e in spec["end_to_end"]
                 if e["name"] == "latency_ms")
    base, same, worse, failed = (tmp_path / f"{n}.jsonl" for n in "abcd")
    _write_runs(base, [4.0, 4.1, 3.9, 4.0, 4.2])
    _write_runs(same, [4.0 * (1 + bound / 2)] * 5)
    _write_runs(worse, [4.0 * (1 + 2 * bound)] * 5)
    # a failed run (its non-finite metrics written as null) is left out
    _write_runs(failed, [None, 4.0, 4.0 * (1 + 2 * bound), None, 4.1])
    assert run.compare(base, same) == 0
    assert run.compare(base, failed) == 0
    assert run.compare(base, worse) == 1
    out = capsys.readouterr().out
    assert re.search(r"regression\s+serve_scalar\s+latency_ms", out)
    assert "(n=3," in out


def test_compare_counts_a_derived_pair_once(tmp_path, capsys):
    # fit goodput is 1/latency: a slower fit regresses both, counted once
    base, slow = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_runs(base, [100.0] * 5, workload="fit_dense", goodput=0.01)
    _write_runs(slow, [200.0] * 5, workload="fit_dense", goodput=0.005)
    assert run.compare(base, slow) == 1
    out = capsys.readouterr().out
    assert re.search(r"regression\s+fit_dense\s+goodput.*\(derived\)", out)
    assert "3 independent pairs, 1 regressed" in out


def test_seconds_beyond_the_request_schedule_are_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "serve_batch", "--seconds", "61"])
    assert exit_info.value.code == 2
    assert "--seconds must be in" in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_runs_and_checks_out_at_tiny_scale(name, spec):
    record = run.run_workload(name, seed=0, seconds=1, trace=True,
                              scale=0.05)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert set(record["metrics"]) == {e["name"] for e in spec["per_layer"]}
    assert len(record["setup_runs_s"]) >= run.SETUP_REPS
    assert not list(run.WORKDIR.glob(f"run-{os.getpid()}-{name}"))
