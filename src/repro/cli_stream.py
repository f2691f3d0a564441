"""``repro-stream``: tail an edge-delta file into a fresh serving store.

The streaming half of the pipeline in one command::

    repro-stream base_graph.txt deltas.txt store_root/ --batch-size 1000

fits :class:`repro.NRP` on the base edge list (whitespace ``src dst``
lines, as ``repro-fit`` reads), publishes version 1 of a *versioned
store root*, then consumes the delta file: each line is

.. code-block:: text

    + src dst      # edge insert ("+" may be omitted)
    - src dst      # edge delete
    # comment

Every ``--batch-size`` deltas (and at end of input) the accumulated
batch flows through :class:`repro.streaming.StreamingUpdater` —
incremental PPR sketch repair, warm reweighting, drift-escalated full
refit — and the refreshed model is published as the next immutable
version, with the ``CURRENT`` pointer renamed atomically so concurrent
readers (``repro-serve query``, :func:`repro.serving.open_current`)
never observe a torn store. With ``--follow`` the file is re-polled for
appended lines, turning a plain file into a poor-man's delta queue.

One JSON line per event (fit, batch, publish) goes to stdout.

Installed as a console script by ``setup.py``; also runnable as
``python -m repro.cli_stream``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import obs
from .errors import ParameterError, ReproError

__all__ = ["main", "build_parser", "parse_delta_line"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream",
        description="Tail an edge-delta file and keep a versioned "
                    "serving store fresh without full refits.")
    parser.add_argument("edgelist", help="base 'src dst' edge-list file")
    parser.add_argument("deltas", help="edge-delta file ('[+|-] src dst')")
    parser.add_argument("store", help="versioned store root directory")
    parser.add_argument("--directed", action="store_true",
                        help="treat edges as directed arcs")
    parser.add_argument("--num-nodes", type=int, default=None,
                        help="node count (default: max id + 1; deltas may "
                             "not grow it)")
    parser.add_argument("--dim", type=int, default=128,
                        help="total embedding dimension k (default 128)")
    parser.add_argument("--alpha", type=float, default=0.15,
                        help="PPR termination probability (default 0.15)")
    parser.add_argument("--ell1", type=int, default=20,
                        help="PPR truncation length (default 20)")
    parser.add_argument("--ell2", type=int, default=10,
                        help="reweighting epochs of the cold fit "
                             "(default 10)")
    parser.add_argument("--eps", type=float, default=0.2,
                        help="SVD error target (default 0.2)")
    parser.add_argument("--lam", type=float, default=10.0,
                        help="reweighting regularization (default 10)")
    parser.add_argument("--svd", default="bksvd", choices=("bksvd", "rsvd"),
                        help="factorization backend (default bksvd)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    parser.add_argument("--name", default=None,
                        help="store name (default: the method's name)")
    parser.add_argument("--batch-size", type=int, default=1000,
                        help="deltas per update batch (default 1000)")
    parser.add_argument("--warm-epochs", type=int, default=None,
                        help="reweighting sweep pairs per batch "
                             "(default: ell2 // 5, at least 1)")
    parser.add_argument("--drift-threshold", type=float, default=0.2,
                        help="weight drift escalating to a full refit "
                             "(default 0.2; 0 disables)")
    parser.add_argument("--max-staleness", type=float, default=0.25,
                        help="basis staleness escalating to a full refit "
                             "(default 0.25; 0 disables)")
    parser.add_argument("--refresh-tol", type=float, default=1e-8,
                        help="incremental PPR residue threshold "
                             "(default 1e-8)")
    parser.add_argument("--keep-versions", type=int, default=None,
                        help="prune the store root to its newest N "
                             "versions after each publish")
    parser.add_argument("--shards", type=int, default=None,
                        help="publish each version as N node-range "
                             "shards (default: one flat store)")
    parser.add_argument("--follow", action="store_true",
                        help="poll the delta file for appended lines "
                             "instead of stopping at EOF")
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between polls with --follow "
                             "(default 0.5)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="stop --follow after this many idle seconds "
                             "(default: follow forever)")
    parser.add_argument("--max-batches", type=int, default=None,
                        help="stop after publishing this many update "
                             "batches (mostly for tests)")
    obs.add_observability_flags(parser, interval=True)
    return parser


def parse_delta_line(line: str, lineno: int) -> tuple[int, int, int] | None:
    """Parse one delta line into ``(sign, src, dst)``; None for blanks."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    sign = +1
    if parts[0] in ("+", "-"):
        sign = +1 if parts[0] == "+" else -1
        parts = parts[1:]
    if len(parts) != 2:
        raise ReproError(
            f"delta line {lineno}: expected '[+|-] src dst', got {line!r}")
    try:
        return sign, int(parts[0]), int(parts[1])
    except ValueError:
        raise ReproError(
            f"delta line {lineno}: non-integer node id in {line!r}"
            ) from None


def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


class _MetricsDumper:
    """Periodic Prometheus text dump to stderr (``--metrics-interval``).

    The stream loop calls :meth:`tick` at its natural pause points
    (after a batch, between polls); the dump fires when the interval
    has elapsed, so a quiet stream does not spam stderr.
    """

    def __init__(self, interval: float | None) -> None:
        self.interval = interval
        self._last = time.perf_counter()

    def tick(self, *, force: bool = False) -> None:
        if self.interval is None:
            return
        now = time.perf_counter()
        if force or now - self._last >= self.interval:
            print(obs.to_prometheus_text(), file=sys.stderr, flush=True)
            self._last = now


def _flush_batch(updater, batch: list[tuple[int, int, int]],
                 args) -> dict:
    # Net the batch in file order before handing it to apply_batch
    # (which applies all inserts, then all deletes): '+ e' followed by
    # '- e' cancels and '- e' followed by '+ e' restores the base edge
    # — DeltaGraph's own net semantics — so order-dependent sequences
    # like delete-then-reinsert survive the batching. On an undirected
    # base (u, v) and (v, u) are one edge, so they share one net state.
    directed = updater.graph.directed
    net: dict[tuple[int, int], int] = {}
    for s, u, v in batch:
        key = (u, v) if directed else (min(u, v), max(u, v))
        level = net.get(key, 0) + s
        if abs(level) > 1:
            word = "inserts" if s > 0 else "deletes"
            raise ReproError(
                f"delta batch {word} edge ({u}, {v}) twice in a row")
        net[key] = level
    add = [k for k, s in net.items() if s > 0]
    rem = [k for k, s in net.items() if s < 0]
    stats = updater.apply_batch(
        [u for u, _ in add], [v for _, v in add],
        remove_src=[u for u, _ in rem], remove_dst=[v for _, v in rem])
    store = updater.publish(args.store, keep=args.keep_versions,
                            shards=args.shards)
    stats.update({"event": "batch", "version": store.version,
                  "store": str(store.root)})
    return stats


def run_stream(args) -> int:
    from .core import NRP
    from .graph.build import read_edge_list
    from .streaming import StreamingConfig, StreamingUpdater

    if args.batch_size < 1:
        raise ParameterError("--batch-size must be >= 1")
    if args.shards is not None and args.shards < 1:
        raise ParameterError("--shards must be >= 1")
    start = time.perf_counter()
    graph = read_edge_list(args.edgelist, directed=args.directed,
                           num_nodes=args.num_nodes)
    if graph.num_nodes == 0:
        raise ReproError(f"edge list {args.edgelist!r} contains no nodes")
    model = NRP(dim=args.dim, alpha=args.alpha, ell1=args.ell1,
                ell2=args.ell2, eps=args.eps, lam=args.lam, svd=args.svd,
                seed=args.seed, keep_factor_state=True)
    config = StreamingConfig(
        refresh_tol=args.refresh_tol,
        warm_epochs=args.warm_epochs,
        drift_threshold=args.drift_threshold or None,
        max_staleness=args.max_staleness or None)
    updater = StreamingUpdater(graph, model, config=config)
    if args.name is not None:
        model.name = args.name
    _emit({"event": "fit", "num_nodes": graph.num_nodes,
           "num_edges": graph.num_edges,
           "seconds": round(time.perf_counter() - start, 3)})
    store = updater.publish(args.store, keep=args.keep_versions,
                            shards=args.shards)
    _emit({"event": "publish", "version": store.version,
           "store": str(store.root)})

    dumper = _MetricsDumper(getattr(args, "metrics_interval", None))
    batch: list[tuple[int, int, int]] = []
    batches_done = 0
    idle = 0.0
    lineno = 0
    with open(args.deltas, "r", encoding="utf-8") as fh:
        while True:
            if (args.max_batches is not None
                    and batches_done >= args.max_batches):
                break
            pos = fh.tell() if args.follow else None
            line = fh.readline()
            if line and (not args.follow or line.endswith("\n")):
                idle = 0.0
                lineno += 1
                parsed = parse_delta_line(line, lineno)
                if parsed is None:
                    continue
                batch.append(parsed)
                if len(batch) >= args.batch_size:
                    _emit(_flush_batch(updater, batch, args))
                    batch = []
                    batches_done += 1
                    dumper.tick()
                continue
            # EOF — or, with --follow, a half-written trailing line the
            # producer has not finished: seek back and wait for the rest
            # rather than parsing a torn delta.
            if line:
                fh.seek(pos)
            if not args.follow:
                break
            if (args.idle_timeout is not None
                    and idle >= args.idle_timeout):
                break
            if batch and idle >= args.poll_interval:
                # producer went quiet for a full poll: flush the partial
                # batch rather than sitting on deltas indefinitely (but
                # never flush per tick while lines are still arriving —
                # that would defeat --batch-size)
                _emit(_flush_batch(updater, batch, args))
                batch = []
                batches_done += 1
                continue
            time.sleep(args.poll_interval)
            idle += args.poll_interval
            dumper.tick()
        if batch and (args.max_batches is None
                      or batches_done < args.max_batches):
            # end of input: flush the final partial batch
            _emit(_flush_batch(updater, batch, args))
            batches_done += 1
    dumper.tick(force=dumper.interval is not None)
    _emit({"event": "done", "batches": batches_done,
           "escalations": updater.num_escalations,
           "num_edges": updater.graph.num_edges})
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    obs.setup_observability(args)
    try:
        result = run_stream(args)
    except (ReproError, OSError) as exc:
        print(f"repro-stream: error: {exc}", file=sys.stderr)
        return 2
    obs.dump_metrics(args)
    return result


if __name__ == "__main__":    # pragma: no cover - exercised via main()
    sys.exit(main())
