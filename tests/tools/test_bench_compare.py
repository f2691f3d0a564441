"""Tests for the perf-regression watchdog (tools/bench_compare.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def _http_record(p99_scale=1.0, rps_scale=1.0, **overrides):
    record = {
        "num_nodes": 20000, "dim": 64, "k": 10, "scale": 1.0, "cpus": 1,
        "by_concurrency": {
            str(c): {"batched": {"p99_ms": round(10.0 * c * p99_scale, 3),
                                 "rps": round(1000.0 / c * rps_scale, 1)}}
            for c in (4, 16, 32)},
    }
    record.update(overrides)
    return record


def _statuses(findings):
    return {f["metric"]: f["status"] for f in findings
            if f.get("metric")}


# ------------------------------------------------------------- resolve()
def test_resolve_wildcards_dicts_and_lists():
    record = {"rows": [{"s": 1.0}, {"s": 2.0}],
              "by": {"a": {"v": 3.0}, "b": {"v": 4.0}}}
    assert dict(bench_compare.resolve(record, "rows.*.s")) == {
        "rows.0.s": 1.0, "rows.1.s": 2.0}
    assert dict(bench_compare.resolve(record, "by.*.v")) == {
        "by.a.v": 3.0, "by.b.v": 4.0}
    assert bench_compare.resolve(record, "by.c.v") == []
    assert bench_compare.resolve(record, "rows.1.s") == [("rows.1.s", 2.0)]


# ------------------------------------------------------ compare_artifact
def test_identical_records_are_all_ok():
    spec = bench_compare.SPECS["http_serving.json"]
    findings = bench_compare.compare_artifact(
        "http_serving.json", _http_record(), _http_record(), spec)
    assert findings
    assert set(_statuses(findings).values()) == {"ok"}


def test_20_percent_p99_regression_detected():
    spec = bench_compare.SPECS["http_serving.json"]
    findings = bench_compare.compare_artifact(
        "http_serving.json", _http_record(), _http_record(p99_scale=1.2),
        spec)
    statuses = _statuses(findings)
    for c in (4, 16, 32):
        assert statuses[f"by_concurrency.{c}.batched.p99_ms"] \
            == "regression"
        assert statuses[f"by_concurrency.{c}.batched.rps"] == "ok"


def test_throughput_drop_is_a_regression_speedup_is_improved():
    spec = bench_compare.SPECS["http_serving.json"]
    findings = bench_compare.compare_artifact(
        "http_serving.json", _http_record(),
        _http_record(rps_scale=0.5, p99_scale=0.5), spec)
    statuses = _statuses(findings)
    assert statuses["by_concurrency.4.batched.rps"] == "regression"
    assert statuses["by_concurrency.4.batched.p99_ms"] == "improved"


def test_within_tolerance_noise_is_ok():
    spec = bench_compare.SPECS["http_serving.json"]
    findings = bench_compare.compare_artifact(
        "http_serving.json", _http_record(),
        _http_record(p99_scale=1.1, rps_scale=0.9), spec)
    assert set(_statuses(findings).values()) == {"ok"}


def test_context_mismatch_is_incomparable_not_judged():
    spec = bench_compare.SPECS["http_serving.json"]
    findings = bench_compare.compare_artifact(
        "http_serving.json", _http_record(),
        _http_record(p99_scale=3.0, num_nodes=5000), spec)
    assert all(f["status"] == "incomparable" for f in findings)
    assert findings[0]["context_mismatch"]["num_nodes"] == {
        "baseline": 20000, "candidate": 5000}


def test_absolute_tolerance_for_obs_overhead():
    spec = bench_compare.SPECS["obs_overhead.json"]
    base = {"num_nodes": 20000, "dim": 64, "k": 10, "scale": 1.0,
            "cpus": 1, "overhead": 0.001}
    ok = bench_compare.compare_artifact(
        "obs_overhead.json", base, {**base, "overhead": 0.012}, spec)
    assert _statuses(ok)["overhead"] == "ok"         # within +0.015 abs
    bad = bench_compare.compare_artifact(
        "obs_overhead.json", base, {**base, "overhead": 0.05}, spec)
    assert _statuses(bad)["overhead"] == "regression"


def _fit_scaling_record(svd_scale=1.0, **overrides):
    record = {
        "dim": 32, "edge_factor": 5, "available_cpus": 2,
        "rows": [{"nodes": n, "edges": 5 * n,
                  "default_seconds": round(n * 7e-5, 3),
                  "svd_seconds": round(n * 3e-5 * svd_scale, 3),
                  "propagation_seconds": round(n * 4e-6, 3),
                  "reweighting_seconds": round(n * 3e-5, 3)}
                 for n in (10_000, 25_000, 50_000)],
    }
    record.update(overrides)
    return record


def test_fit_scaling_on_other_cpu_count_is_incomparable():
    spec = bench_compare.SPECS["fit_scaling.json"]
    findings = bench_compare.compare_artifact(
        "fit_scaling.json", _fit_scaling_record(),
        _fit_scaling_record(svd_scale=3.0, available_cpus=4), spec)
    assert findings
    assert all(f["status"] == "incomparable" for f in findings)
    assert findings[0]["context_mismatch"]["available_cpus"] == {
        "baseline": 2, "candidate": 4}


def test_streaming_on_other_cpu_count_is_incomparable():
    spec = bench_compare.SPECS["streaming.json"]
    base = {"dataset": "vk_sim", "scale": 1.0, "dim": 64,
            "num_batches": 10, "cpus": 2, "stream_seconds": 1.0,
            "speedup": 5.0}
    findings = bench_compare.compare_artifact(
        "streaming.json", base,
        {**base, "cpus": 1, "stream_seconds": 2.0}, spec)
    assert findings
    assert all(f["status"] == "incomparable" for f in findings)
    assert findings[0]["context_mismatch"]["cpus"] == {
        "baseline": 2, "candidate": 1}


def test_missing_candidate_metric_is_reported():
    spec = {"context": [], "metrics": [("a.b", "lower", {"rel": 0.1})]}
    findings = bench_compare.compare_artifact(
        "x.json", {"a": {"b": 1.0}}, {"a": {}}, spec)
    assert _statuses(findings)["a.b"] == "missing"


# --------------------------------------------------------------- main()
def _write(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record), encoding="utf-8")


def test_main_exits_zero_without_regressions(tmp_path, capsys):
    _write(tmp_path / "base" / "http_serving.json", _http_record())
    _write(tmp_path / "res" / "http_serving.json", _http_record())
    code = bench_compare.main(
        ["--results", str(tmp_path / "res"),
         "--baselines", str(tmp_path / "base"),
         "--output", str(tmp_path / "report.json")])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["regressions"] == 0
    assert report["counts"]["ok"] == 6
    assert "ok" in capsys.readouterr().out


def test_main_exits_nonzero_on_regression(tmp_path, capsys):
    _write(tmp_path / "base" / "http_serving.json", _http_record())
    _write(tmp_path / "res" / "http_serving.json",
           _http_record(p99_scale=1.2))
    code = bench_compare.main(
        ["--results", str(tmp_path / "res"),
         "--baselines", str(tmp_path / "base"),
         "--output", str(tmp_path / "report.json"), "--quiet"])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["regressions"] == 3
    out = capsys.readouterr().out
    assert "regression" in out


def test_main_exits_nonzero_when_the_fit_svd_slows(tmp_path, capsys):
    _write(tmp_path / "base" / "fit_scaling.json", _fit_scaling_record())
    _write(tmp_path / "res" / "fit_scaling.json",
           _fit_scaling_record(svd_scale=1.3))
    code = bench_compare.main(
        ["--results", str(tmp_path / "res"),
         "--baselines", str(tmp_path / "base"),
         "--artifacts", "fit_scaling.json",
         "--output", str(tmp_path / "report.json")])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    regressed = {f["metric"] for f in report["findings"]
                 if f["status"] == "regression"}
    assert regressed == {f"rows.{i}.svd_seconds" for i in range(3)}
    assert "regression" in capsys.readouterr().out


def test_main_exits_nonzero_when_streaming_slows(tmp_path, capsys):
    baseline = json.loads((BASELINES / "streaming.json").read_text())
    slower = {**baseline,
              "stream_seconds": round(baseline["stream_seconds"] * 1.3, 3)}
    _write(tmp_path / "res" / "streaming.json", slower)
    code = bench_compare.main(
        ["--results", str(tmp_path / "res"),
         "--baselines", str(BASELINES),
         "--artifacts", "streaming.json",
         "--output", str(tmp_path / "report.json")])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    regressed = {f["metric"] for f in report["findings"]
                 if f["status"] == "regression"}
    assert regressed == {"stream_seconds"}
    assert "regression" in capsys.readouterr().out


def test_main_usage_errors_exit_two(tmp_path, capsys):
    assert bench_compare.main(
        ["--baselines", str(tmp_path / "nope")]) == 2
    capsys.readouterr()
    (tmp_path / "base").mkdir()
    assert bench_compare.main(
        ["--baselines", str(tmp_path / "base"),
         "--artifacts", "unknown.json"]) == 2
    assert "no comparison spec" in capsys.readouterr().err


def test_main_tolerates_absent_artifacts(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "res").mkdir()
    code = bench_compare.main(["--results", str(tmp_path / "res"),
                               "--baselines", str(tmp_path / "base")])
    assert code == 0                    # nothing to compare != regression
    assert "no_baseline" in capsys.readouterr().out


# -------------------------------------------- the committed baselines
@pytest.mark.skipif(not BASELINES.is_dir(),
                    reason="no committed baselines")
def test_committed_baselines_compare_clean_against_themselves(capsys):
    code = bench_compare.main(["--results", str(BASELINES),
                               "--baselines", str(BASELINES)])
    assert code == 0
    out = capsys.readouterr().out
    assert "regression" not in out.replace("bench_compare:", "")


def test_every_spec_metric_path_is_wildcard_parseable():
    for name, spec in bench_compare.SPECS.items():
        for pattern, direction, tolerance in spec["metrics"]:
            assert direction in ("lower", "higher"), (name, pattern)
            assert ("rel" in tolerance) != ("abs" in tolerance), \
                (name, pattern)
            assert all(part == "*" or part for part in pattern.split("."))
