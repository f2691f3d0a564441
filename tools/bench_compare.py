#!/usr/bin/env python
"""Perf-regression watchdog: diff benchmark JSON against baselines.

CI runs the ``benchmarks/bench_*.py`` suite and archives one JSON
artifact per benchmark under ``benchmarks/results/``. This tool diffs
those artifacts against the committed baselines in
``benchmarks/baselines/`` and **fails (exit 1) on regressions** beyond
per-metric tolerances, so a PR that quietly doubles serving p99 or
halves streaming throughput turns red instead of landing.

Design points:

* **dependency-free** — stdlib only, runnable on any CI worker;
* **per-metric specs** — each artifact has a list of dotted metric
  paths (``*`` wildcards expand over dict keys and list indices), a
  direction (``lower``/``higher`` is better), and a tolerance, either
  relative (``rel``, fraction of the baseline) or absolute (``abs``,
  for near-zero quantities like the obs overhead fraction);
* **context guards** — a baseline measured at ``num_nodes=20000`` says
  nothing about a run at 5000; when any context key differs the
  artifact is marked ``incomparable`` and skipped rather than
  mis-judged;
* **machine-readable output** — ``--output`` writes every finding
  (ok / regression / improved / missing / no_baseline / incomparable)
  to a JSON report CI uploads next to the artifacts.

Usage::

    python tools/bench_compare.py \
        --results benchmarks/results --baselines benchmarks/baselines \
        --output benchmarks/results/bench_regressions.json

Exit codes: 0 = no regressions, 1 = at least one regression,
2 = usage / IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

__all__ = ["SPECS", "compare_artifact", "compare_all", "main"]


#: Per-artifact comparison specs. ``context`` keys must match between
#: baseline and candidate (differences => incomparable, not judged);
#: ``metrics`` entries are (path, direction, tolerance) with ``path``
#: a dotted route into the JSON (``*`` matches any dict key / list
#: index), ``direction`` naming which way is better, and ``tolerance``
#: either ``{"rel": f}`` (fraction of baseline) or ``{"abs": x}``.
SPECS: dict[str, dict] = {
    "http_serving.json": {
        "context": ["num_nodes", "dim", "k", "scale", "cpus"],
        "metrics": [
            ("by_concurrency.*.batched.p99_ms", "lower", {"rel": 0.15}),
            ("by_concurrency.*.batched.rps", "higher", {"rel": 0.15}),
        ],
    },
    "obs_overhead.json": {
        "context": ["num_nodes", "dim", "k", "scale", "cpus"],
        # overhead is a fraction hovering around 0: relative slack on a
        # ~0.001 baseline would flag noise, so the budget is absolute
        "metrics": [
            ("overhead", "lower", {"abs": 0.015}),
        ],
    },
    "sharded_serving.json": {
        "context": ["num_nodes", "dim", "k", "scale", "cpus"],
        "metrics": [
            ("flat_qps", "higher", {"rel": 0.25}),
            ("by_shards.*.qps", "higher", {"rel": 0.25}),
        ],
    },
    "streaming.json": {
        "context": ["dataset", "scale", "dim", "num_batches", "cpus"],
        "metrics": [
            ("stream_seconds", "lower", {"rel": 0.25}),
            ("speedup", "higher", {"rel": 0.25}),
        ],
    },
    "fit_scaling.json": {
        "context": ["dim", "edge_factor", "available_cpus"],
        "metrics": [
            ("rows.*.default_seconds", "lower", {"rel": 0.25}),
            ("rows.*.svd_seconds", "lower", {"rel": 0.25}),
        ],
    },
}


# ----------------------------------------------------------------------
# path resolution
# ----------------------------------------------------------------------

def resolve(record, pattern: str) -> list[tuple[str, object]]:
    """Expand a dotted ``*``-wildcard path into ``(path, value)`` pairs.

    Dicts are traversed by key, lists by index; ``*`` fans out over
    every key/index at that level. Paths that dead-end (missing key,
    non-numeric leaf encountered mid-route) simply yield nothing —
    presence is judged by the caller against the baseline's paths.
    """
    parts = pattern.split(".")
    found: list[tuple[str, object]] = []

    def walk(node, index: int, crumbs: list[str]) -> None:
        if index == len(parts):
            found.append((".".join(crumbs), node))
            return
        part = parts[index]
        if isinstance(node, dict):
            keys = list(node) if part == "*" else [part]
            for key in keys:
                if key in node:
                    walk(node[key], index + 1, crumbs + [str(key)])
        elif isinstance(node, list):
            if part == "*":
                for i, item in enumerate(node):
                    walk(item, index + 1, crumbs + [str(i)])
            elif part.isdigit() and int(part) < len(node):
                walk(node[int(part)], index + 1, crumbs + [part])

    walk(record, 0, [])
    return found


# ----------------------------------------------------------------------
# judging
# ----------------------------------------------------------------------

def _judge(base: float, cand: float, direction: str,
           tolerance: dict) -> str:
    """ok / regression / improved for one (baseline, candidate) pair."""
    worse = cand - base if direction == "lower" else base - cand
    if "abs" in tolerance:
        allowed = float(tolerance["abs"])
    else:
        allowed = abs(base) * float(tolerance["rel"])
    if worse > allowed:
        return "regression"
    if worse < -allowed:
        return "improved"
    return "ok"


def compare_artifact(name: str, baseline: dict, candidate: dict,
                     spec: dict) -> list[dict]:
    """Findings for one artifact (one dict per metric path)."""
    findings: list[dict] = []
    mismatched = [key for key in spec.get("context", ())
                  if key in baseline and key in candidate
                  and baseline[key] != candidate[key]]
    if mismatched:
        # measured under different conditions: saying anything about
        # perf would be noise, so every metric is skipped as such
        for pattern, direction, tolerance in spec["metrics"]:
            findings.append(
                {"artifact": name, "metric": pattern,
                 "status": "incomparable",
                 "context_mismatch": {
                     key: {"baseline": baseline[key],
                           "candidate": candidate[key]}
                     for key in mismatched}})
        return findings
    for pattern, direction, tolerance in spec["metrics"]:
        base_values = dict(resolve(baseline, pattern))
        cand_values = dict(resolve(candidate, pattern))
        if not base_values:
            findings.append({"artifact": name, "metric": pattern,
                             "status": "no_baseline"})
            continue
        for path, base in sorted(base_values.items()):
            cand = cand_values.get(path)
            entry = {"artifact": name, "metric": path,
                     "direction": direction, "tolerance": tolerance,
                     "baseline": base, "candidate": cand}
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                continue                  # non-numeric leaf: not judged
            if cand is None or not isinstance(cand, (int, float)) \
                    or isinstance(cand, bool):
                entry["status"] = "missing"
            else:
                entry["status"] = _judge(float(base), float(cand),
                                         direction, tolerance)
                if base:
                    entry["change"] = round((cand - base) / abs(base), 4)
            findings.append(entry)
    return findings


def compare_all(results_dir: Path, baselines_dir: Path,
                artifacts: list[str] | None = None) -> list[dict]:
    """Findings across every spec'd artifact with a committed baseline."""
    findings: list[dict] = []
    names = artifacts if artifacts else sorted(SPECS)
    for name in names:
        spec = SPECS.get(name)
        if spec is None:
            raise KeyError(f"no comparison spec for artifact {name!r}; "
                           f"known: {', '.join(sorted(SPECS))}")
        base_path = baselines_dir / name
        cand_path = results_dir / name
        if not base_path.is_file():
            findings.append({"artifact": name, "metric": None,
                             "status": "no_baseline"})
            continue
        if not cand_path.is_file():
            findings.append({"artifact": name, "metric": None,
                             "status": "missing"})
            continue
        try:
            baseline = json.loads(base_path.read_text(encoding="utf-8"))
            candidate = json.loads(cand_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}: unreadable JSON: {exc}") from exc
        findings.extend(compare_artifact(name, baseline, candidate, spec))
    return findings


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _format_row(finding: dict) -> str:
    status = finding["status"]
    metric = finding.get("metric") or "(artifact)"
    extra = ""
    if "change" in finding:
        extra = f"  {finding['change']:+.1%}  " \
                f"{finding['baseline']} -> {finding['candidate']}"
    return f"{status:12s} {finding['artifact']}::{metric}{extra}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="Diff benchmark JSON artifacts against committed "
                    "baselines; exit 1 on perf regressions.")
    parser.add_argument("--results", default="benchmarks/results",
                        help="directory with fresh benchmark JSON "
                             "(default benchmarks/results)")
    parser.add_argument("--baselines", default="benchmarks/baselines",
                        help="directory with committed baseline JSON "
                             "(default benchmarks/baselines)")
    parser.add_argument("--artifacts", nargs="*", default=None,
                        help="artifact filenames to compare "
                             "(default: every spec'd artifact)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the full findings report as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="only print regressions")
    args = parser.parse_args(argv)

    results_dir = Path(args.results)
    baselines_dir = Path(args.baselines)
    if not baselines_dir.is_dir():
        print(f"bench_compare: baselines directory {baselines_dir} "
              f"does not exist", file=sys.stderr)
        return 2
    try:
        findings = compare_all(results_dir, baselines_dir, args.artifacts)
    except (KeyError, ValueError, OSError) as exc:
        print(f"bench_compare: error: {exc}", file=sys.stderr)
        return 2

    regressions = [f for f in findings if f["status"] == "regression"]
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding["status"]] = counts.get(finding["status"], 0) + 1
    for finding in findings:
        if args.quiet and finding["status"] != "regression":
            continue
        print(_format_row(finding))
    summary = ", ".join(f"{count} {status}"
                        for status, count in sorted(counts.items()))
    print(f"bench_compare: {summary or 'nothing compared'}")

    if args.output:
        report = {"generated_at": time.time(),
                  "results_dir": str(results_dir),
                  "baselines_dir": str(baselines_dir),
                  "counts": counts,
                  "regressions": len(regressions),
                  "findings": findings}
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
