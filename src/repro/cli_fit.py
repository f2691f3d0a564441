"""``repro-fit``: fit NRP embeddings from an edge list, export for serving.

The offline half of the pipeline in one command::

    repro-fit graph.txt store_dir --dim 128

reads a whitespace ``src dst`` edge-list file, fits :class:`repro.NRP`
in this process, and writes an mmap-able
:class:`repro.serving.EmbeddingStore` directory that ``repro-serve
query`` answers top-k requests from. Optionally also archives the run
as a compressed ``.npz`` bundle (``--bundle``).

Invalid hyperparameters (``--lam nan``, ``--eps nan``, ``--dim 15``)
are reported as one ``repro-fit: error:`` line with exit status 2, and
no store is written.

Installed as a console script by ``setup.py``; also runnable as
``python -m repro.cli_fit``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import obs
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fit",
        description="Fit NRP embeddings from an edge list and export an "
                    "mmap serving store.")
    parser.add_argument("edgelist", help="whitespace 'src dst' edge-list file")
    parser.add_argument("store", help="output store directory")
    parser.add_argument("--directed", action="store_true",
                        help="treat the edge list as directed arcs")
    parser.add_argument("--num-nodes", type=int, default=None,
                        help="node count (default: max id + 1)")
    parser.add_argument("--method", default="nrp",
                        choices=("nrp", "approxppr"),
                        help="embedding method (default nrp)")
    parser.add_argument("--dim", type=int, default=128,
                        help="total embedding dimension k (default 128)")
    parser.add_argument("--alpha", type=float, default=0.15,
                        help="PPR termination probability (default 0.15)")
    parser.add_argument("--ell1", type=int, default=20,
                        help="PPR truncation length (default 20)")
    parser.add_argument("--ell2", type=int, default=10,
                        help="reweighting epochs, nrp only (default 10)")
    parser.add_argument("--eps", type=float, default=0.2,
                        help="SVD error target (default 0.2)")
    parser.add_argument("--lam", type=float, default=10.0,
                        help="reweighting regularization (default 10)")
    parser.add_argument("--svd", default="bksvd",
                        choices=("bksvd", "rsvd", "exact"),
                        help="factorization backend (default bksvd)")
    parser.add_argument("--update-mode", default="sequential",
                        choices=("sequential", "jacobi"),
                        help="reweighting sweep mode (default sequential)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    parser.add_argument("--name", default=None,
                        help="store name (default: the method's name)")
    parser.add_argument("--bundle", default=None, metavar="PATH",
                        help="also save a compressed .npz bundle here")
    obs.add_observability_flags(parser)
    return parser


def _build_model(args):
    from .core import NRP, ApproxPPREmbedder
    if args.method == "nrp":
        return NRP(dim=args.dim, alpha=args.alpha, ell1=args.ell1,
                   ell2=args.ell2, eps=args.eps, lam=args.lam, svd=args.svd,
                   update_mode=args.update_mode, seed=args.seed)
    return ApproxPPREmbedder(dim=args.dim, alpha=args.alpha, ell1=args.ell1,
                             eps=args.eps, svd=args.svd, seed=args.seed)


def run_fit(args) -> dict:
    """Read, fit, export; returns the summary record printed by main()."""
    from .graph.build import read_edge_list
    from .io import save_embeddings

    start = time.perf_counter()
    graph = read_edge_list(args.edgelist, directed=args.directed,
                           num_nodes=args.num_nodes)
    read_seconds = time.perf_counter() - start
    if graph.num_nodes == 0:
        raise ReproError(f"edge list {args.edgelist!r} contains no nodes")

    model = _build_model(args)
    start = time.perf_counter()
    model.fit(graph)
    fit_seconds = time.perf_counter() - start

    if args.name is not None:
        model.name = args.name
    fit_meta = {"fit_seconds": round(fit_seconds, 3),
                "num_nodes": graph.num_nodes, "num_edges": graph.num_edges,
                "directed": graph.directed, "seed": args.seed,
                "update_mode": args.update_mode}
    store = model.export_store(args.store, metadata=fit_meta)
    if args.bundle:
        save_embeddings(model, args.bundle, metadata=fit_meta)
    return {"store": str(store.root), "name": store.name,
            "num_nodes": graph.num_nodes, "num_edges": graph.num_edges,
            "dim": store.dim, "read_seconds": round(read_seconds, 3),
            "fit_seconds": round(fit_seconds, 3),
            "bundle": args.bundle}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    obs.setup_observability(args)
    try:
        summary = run_fit(args)
    except (ReproError, OSError) as exc:
        print(f"repro-fit: error: {exc}", file=sys.stderr)
        return 2
    obs.dump_metrics(args, extra={"summary": summary})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":    # pragma: no cover - exercised via main()
    sys.exit(main())
