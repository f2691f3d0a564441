"""The ledger's own spans for ``--trace`` runs, and the self-time math.

Spans are kept in memory as flat records (``id``, ``name``, ``start``,
``end``, ``parent``, ``trace_id``; times are ``time.time()`` seconds,
the clock :mod:`repro.obs` spans and the server's trace ring use too)
and written to ``trace.json`` when the run ends. Besides the spans the
benchmark opens around its calls into each layer, a recorder adopts the
trees the program already emits: in-process :class:`repro.obs.Span`
trees, and the server's ``/debug/traces`` trees, which carry durations
only and are laid out child after child from their parent's start.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path

__all__ = ["Recorder", "new_trace_id", "self_time", "union_length"]


def new_trace_id() -> str:
    """A random 32-hex-digit W3C trace id."""
    return os.urandom(16).hex()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to
    ``[lo, hi]``; overlapping intervals count once."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its children's intervals cover."""
    return (end - start) - union_length(children, start, end)


class Recorder:
    """Thread-safe in-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._children: dict[int, list[dict]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, *,
            parent: dict | None = None, trace_id: str | None = None) -> dict:
        """Record a finished span; children inherit the parent's trace."""
        if trace_id is None:
            trace_id = parent["trace_id"] if parent else new_trace_id()
        with self._lock:
            record = {"id": next(self._ids), "name": name,
                      "start": start, "end": end,
                      "parent": parent["id"] if parent else None,
                      "trace_id": trace_id}
            self.spans.append(record)
            if parent is not None:
                self._children.setdefault(parent["id"], []).append(record)
        return record

    def adopt_obs(self, span, parent: dict) -> dict:
        """Copy a finished :class:`repro.obs.Span` tree under ``parent``."""
        record = self.add(span.name, span.started_at,
                          span.started_at + span.duration, parent=parent)
        for child in span.children:
            self.adopt_obs(child, record)
        return record

    def adopt_tree(self, tree: dict, start: float, parent: dict) -> dict:
        """Copy a ``Span.to_dict`` tree (durations only) under ``parent``.

        Without start times the children are placed one after another
        from ``start``; self time stays exact as long as siblings did not
        overlap, which holds for the server's queue and batch spans.
        """
        end = start + tree["duration_seconds"]
        record = self.add(tree["name"], start, end, parent=parent)
        cursor = start
        for child in tree.get("children", ()):
            self.adopt_tree(child, cursor, record)
            cursor += child["duration_seconds"]
        return record

    def children(self, record: dict) -> list[dict]:
        return list(self._children.get(record["id"], ()))

    def descendants(self, record: dict, name: str) -> list[dict]:
        """Every span named ``name`` in the subtree under ``record``."""
        found = []
        stack = self.children(record)
        while stack:
            span = stack.pop()
            if span["name"] == name:
                found.append(span)
            stack.extend(self.children(span))
        return found

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans
                if s["parent"] is None and s["name"] == name]

    def duration(self, records) -> float:
        """Summed duration of ``records``."""
        return sum(s["end"] - s["start"] for s in records)

    def self_time(self, record: dict) -> float:
        return self_time(record["start"], record["end"],
                         [(c["start"], c["end"])
                          for c in self.children(record)])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n",
                        encoding="utf-8")
