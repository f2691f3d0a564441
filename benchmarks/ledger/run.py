#!/usr/bin/env python3
"""The performance ledger: one command for fit, streaming and HTTP
serving, measured end to end and layer by layer.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]
    python3 benchmarks/ledger/run.py --compare A.jsonl B.jsonl

A harness calls it as ``run.py --workload W --seed N --seconds S --trace
0|1``, ``S`` being ``run_seconds`` of ``BENCHMARK.json``. Each workload
is set up several times (``setup_s`` is the median), then measured for
``--seconds``. Every metric prints as ``workload metric
value unit``, each correctness check as ``workload check ok|FAIL
name``, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics, taken
from a second, traced pass (spans go to ``results/trace_<workload>.json``
next to this file). The exit code is 1 if any check fails.

``--out`` appends one JSON line per workload run; ``--compare`` judges
two such files by the bounds in ``BENCHMARK.json``, comparing per
workload the median of each end-to-end metric, and exits 1 on a
regression.

The program is imported from ``src/`` of the checkout this file sits
in, and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORKDIR = HERE / ".work"
WORKLOADS = ("fit_sparse", "fit_dense", "stream", "serve_scalar",
             "serve_batch")
END_TO_END = ("setup_s", "latency_ms", "goodput", "quality")
# (workload, metric) pairs that are a function of another pair: goodput is
# 1/latency where one unit of work runs at a time, and recall@10 over HTTP
# falls below 1 only when the exact-match check already failed
DERIVED = {("fit_sparse", "goodput"), ("fit_dense", "goodput"),
           ("stream", "goodput"), ("serve_scalar", "quality"),
           ("serve_batch", "quality")}
# setup runs at least SETUP_REPS times, and more while the runs add up to
# less than SETUP_MIN_S, so a setup of a few milliseconds still yields a
# steady median
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 30


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit if it is not
    there or another copy shadows it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: program source not found under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"run.py: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def make_workload(name: str, scale: float = 1.0):
    import_program()
    from serve import ServeWorkload
    from workloads import FitWorkload, StreamWorkload
    if name in FitWorkload.SIZES:
        return FitWorkload(name, scale=scale)
    if name in ServeWorkload.CONFIG:
        return ServeWorkload(name, scale=scale)
    if name == "stream":
        return StreamWorkload(name, scale=scale)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


def context(seed: int, seconds: float) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(), "seed": seed,
            "seconds": seconds}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """Set up, measure and check one workload; returns its record."""
    workload = make_workload(name, scale)
    import numpy as np
    from spans import Recorder
    from workloads import median
    # Start the BLAS thread pool before anything is timed: on a small
    # shared VM its start-up has taken up to a second, which would land
    # on whichever setup or fit first calls multithreaded BLAS.
    np.ones((512, 512)) @ np.ones((512, 512))
    spec = load_spec()
    workdir = WORKDIR / f"run-{os.getpid()}-{name}"
    states, setup_s, parts = [], [], []
    try:
        while len(setup_s) < SETUP_REPS or (
                sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
            rep = workdir / f"setup{len(setup_s)}"
            rep.mkdir(parents=True)
            start = time.perf_counter()
            states.append(workload.setup(seed, rep))
            setup_s.append(time.perf_counter() - start)
            parts.append(states[-1].setup_parts)
            while len(states) > SETUP_REPS:
                workload.close(states.pop(0))
        # A pass that consumes its state (a stream replay cannot be
        # rewound) gets a setup of its own; the others share them all.
        fresh = workload.CONSUMES_STATE
        main = workload.measure(states[-1:] if fresh else states, seconds,
                                None, quality=not trace)
        traced = None
        if trace:
            recorder = Recorder()
            traced = workload.measure(states[-2:-1] if fresh else states,
                                      seconds, recorder, quality=False)
            recorder.write(RESULTS / f"trace_{name}.json")
    finally:
        for state in states:
            workload.close(state)
        shutil.rmtree(workdir, ignore_errors=True)

    mid = sorted(range(len(setup_s)), key=setup_s.__getitem__)[
        len(setup_s) // 2]
    checks = dict(main.checks)
    q = workload.LATENCY_Q
    if traced is None:
        values = dict(zip(END_TO_END, (median(setup_s), main.latency_ms(q),
                                       main.goodput, main.quality)))
        declared = spec["end_to_end"]
        detail = dict(main.detail, latency_count=len(main.latencies_ms),
                      **{f"latency_p{p}_ms": main.latency_ms(p)
                         for p in (0, 10, 25, 50, 75, 90, 99)})
    else:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update(traced.layers)
        values.update({key: part / setup_s[mid]
                       for key, part in parts[mid].items()})
        values["obs.trace_overhead"] = (traced.latency_ms(q)
                                        / main.latency_ms(q) - 1.0)
        declared = spec["per_layer"]
        detail = traced.detail
        checks.update({f"traced: {key}": ok
                       for key, ok in traced.checks.items()})
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"{name} produced undeclared metrics {unknown}")
    checks["every metric is finite"] = all(
        v is not None and math.isfinite(v) for v in values.values())
    passes = [p for p in (main, traced) if p is not None]
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "correct": all(checks.values()),
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "checks": checks,
            "metrics": {key: {"value": _number(values[key]),
                              "unit": units[key]} for key in units},
            "setup_runs_s": setup_s, "detail": detail,
            "errors": [e for p in passes for e in p.errors],
            "context": context(seed, seconds)}


def _number(value):
    """A JSON-safe float (None for NaN or infinity)."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def report(record: dict) -> None:
    name = record["workload"]
    print(f"{name} context {json.dumps(record['context'], sort_keys=True)}")
    for check, ok in record["checks"].items():
        print(f"{name} check {'ok' if ok else 'FAIL'} {check}")
    for error in record["errors"]:
        print(f"{name}: {error}", file=sys.stderr)
    for metric, entry in record["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}), flush=True)


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def load_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """End-to-end values of the correct untraced runs in a ``--out``
    file, as ``{workload: {metric: [value per run]}}``. A run whose checks
    failed is left out; the count of runs printed per pair shows it."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] or not record["correct"]:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for key, entry in record["metrics"].items():
            metrics.setdefault(key, []).append(entry["value"])
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def compare(path_a: Path, path_b: Path) -> int:
    """Judge set B against set A by the bounds of ``BENCHMARK.json``."""
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_compare import compare_artifact
    spec = load_spec()
    sets = [load_runs(path_a), load_runs(path_b)]
    medians = [{"workloads": {w: {m: statistics.median(v)
                                  for m, v in metrics.items()}
                              for w, metrics in runs.items()}}
               for runs in sets]
    judge = {"context": [],
             "metrics": [(f"workloads.*.{m['name']}", m["better"],
                          {"rel": m["bound"]}) for m in spec["end_to_end"]]}
    findings = compare_artifact("ledger", medians[0], medians[1], judge)
    judged = bad = 0
    for finding in findings:
        workload, metric = finding["metric"].split(".")[1:3]
        series = [runs.get(workload, {}).get(metric, []) for runs in sets]
        status = finding["status"]
        # a derived pair moves with the pair it derives from: shown, but
        # one slowdown is not counted twice
        derived = (workload, metric) in DERIVED
        if not derived:
            judged += 1
            bad += status in ("regression", "missing", "no_baseline")
        print(f"{status:12s} {workload:12s} {metric:10s} "
              f"A {finding.get('baseline')!r} (n={len(series[0])}, "
              f"iqr {spread(series[0]):.4f})  "
              f"B {finding.get('candidate')!r} (n={len(series[1])}, "
              f"iqr {spread(series[1]):.4f})  "
              f"bound {finding.get('tolerance', {}).get('rel')}"
              f"{'  (derived)' if derived else ''}")
    print(f"compare: {judged} independent pairs, {bad} regressed or missing")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Measure fit, streaming and serving "
                                   "end to end and layer by layer.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run; repeat for several "
                             "(default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every graph, split, embedding and "
                             "request stream (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass, more than 0 and "
                             "at most 60 (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced "
                             "pass")
    parser.add_argument("--out", type=Path, default=None,
                        help="append one JSON record per workload run")
    parser.add_argument("--compare", type=Path, nargs=2, default=None,
                        metavar=("A", "B"),
                        help="judge run set B against run set A")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    import_program()
    from workloads import MAX_SECONDS
    seconds = (load_spec()["run_seconds"] if args.seconds is None
               else args.seconds)
    if not 0 < seconds <= MAX_SECONDS:
        # the serving workloads' request schedule covers two passes of
        # MAX_SECONDS; a longer pass would run out of requests
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    # a terminated run still stops the servers it started (the cleanup
    # sits in finally blocks, which SystemExit runs and SIGTERM would not)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    correct = True
    for name in args.workload or WORKLOADS:
        record = run_workload(name, seed=args.seed, seconds=seconds,
                              trace=bool(args.trace))
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        report(record)
        correct = correct and record["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
