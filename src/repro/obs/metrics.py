"""Dependency-free metrics primitives: counters, gauges, histograms.

The substrate of :mod:`repro.obs`. Three metric kinds behind one
process-global, thread-safe :class:`MetricsRegistry`:

* :class:`Counter` — monotone sum (requests served, cache hits);
* :class:`Gauge` — last-written value (frontier size, drift);
* :class:`Histogram` — fixed log-spaced buckets with streaming
  p50/p95/p99 estimates (latencies, batch sizes, iteration counts).

Design constraints, in order:

1. **Disabled must be free.** Every instrumented call site guards with
   :func:`enabled` — a module-global bool read — before touching a
   clock or the registry, so shipping the instrumentation costs one
   branch per call when metrics are off.
2. **Enabled must be cheap.** Metric handles are plain objects with one
   lock each; ``Histogram.observe`` is a log, a clamp, and two adds.
   Hot loops may also look a handle up once and hold it.
3. **No new dependencies.** Buckets are a small numpy array; everything
   else is stdlib.

Labels: a series is ``(name, sorted(labels.items()))``. Keep label
cardinality bounded (shard ids, refit reasons — not node ids); every
distinct label set is one live object in the registry.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

import numpy as np

from ..errors import ParameterError

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "enabled", "set_enabled", "get_registry", "reset", "capture",
]

#: Label key type: canonical, hashable form of a labels dict.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("name", "labels", "description", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.description: str | None = None
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-written value; supports relative adjustment."""

    kind = "gauge"
    __slots__ = ("name", "labels", "description", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.description: str | None = None
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log-bucket histogram with streaming quantile estimates.

    Buckets are geometric: edge ``i`` sits at ``min_value * growth**i``
    for ``i = 0..num_buckets``, bucket ``i`` holds values in
    ``(edge[i], edge[i+1]]``, with an underflow bucket for values
    ``<= min_value`` and an overflow bucket above the last edge. The
    defaults (``1e-6``, growth ``1.25``, 128 buckets) span one
    microsecond to ~2.4e6 in ~25% relative steps — wide enough for
    latencies in seconds *and* discrete sizes (batch sizes, iteration
    counts) through the same type.

    :meth:`quantile` finds the bucket where the cumulative count
    crosses ``q * count`` and interpolates linearly inside it, clamping
    to the observed min/max, so the estimate is within one bucket width
    (``growth - 1`` relative) of the exact sample quantile — the bound
    the unit tests pin against ``np.quantile``.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "description", "_min", "_log_growth",
                 "_edges", "_counts", "_sum", "_count", "_obs_min",
                 "_obs_max", "_exemplars", "_lock")

    def __init__(self, name: str, labels: _LabelKey = (), *,
                 min_value: float = 1e-6, growth: float = 1.25,
                 num_buckets: int = 128) -> None:
        if min_value <= 0:
            raise ParameterError("min_value must be positive")
        if growth <= 1.0:
            raise ParameterError("growth must be > 1")
        if num_buckets < 1:
            raise ParameterError("num_buckets must be >= 1")
        self.name = name
        self.labels = labels
        self.description: str | None = None
        self._min = float(min_value)
        self._log_growth = math.log(growth)
        self._edges = min_value * np.power(float(growth),
                                           np.arange(num_buckets + 1))
        # slot 0: underflow (<= min_value); slot -1: overflow
        self._counts = np.zeros(num_buckets + 2, dtype=np.int64)
        self._sum = 0.0
        self._count = 0
        self._obs_min = math.inf
        self._obs_max = -math.inf
        # bucket index -> most recent exemplar observed in that bucket
        # (bounded by the bucket count; sampled traces link a latency
        # spike back to a concrete request)
        self._exemplars: dict[int, dict] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def edges(self) -> np.ndarray:
        """Bucket edges (underflow below ``edges[0]``, overflow above
        ``edges[-1]``)."""
        return self._edges

    def bucket_index(self, value: float) -> int:
        """The ``_counts`` slot ``value`` lands in (0 = underflow)."""
        if value <= self._min:
            return 0
        # floor of the geometric position; nudge exact edges down into
        # the (lo, hi] bucket they close
        pos = math.log(value / self._min) / self._log_growth
        idx = int(math.ceil(pos - 1e-9))
        return min(idx, len(self._counts) - 1)

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        """Record ``value``; ``exemplar`` optionally attaches a small
        label dict (canonically ``{"trace_id": ...}``) identifying one
        concrete event that landed in this bucket — the most recent
        exemplar per bucket is kept."""
        value = float(value)
        idx = self.bucket_index(value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._obs_min:
                self._obs_min = value
            if value > self._obs_max:
                self._obs_max = value
            if exemplar is not None:
                self._exemplars[idx] = {"value": value,
                                        "labels": dict(exemplar),
                                        "ts": time.time()}

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def counts(self) -> np.ndarray:
        """A snapshot copy of the per-bucket counts."""
        with self._lock:
            return self._counts.copy()

    def exemplars(self) -> list[dict]:
        """Recent exemplars, one per bucket at most, by ascending value."""
        with self._lock:
            records = [dict(e) for e in self._exemplars.values()]
        return sorted(records, key=lambda e: e["value"])

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of everything observed so far.

        Returns ``nan`` when nothing was observed. The estimate is
        exact to within one bucket's width.
        """
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {q!r}")
        with self._lock:
            counts = self._counts.copy()
            total = self._count
            lo_seen, hi_seen = self._obs_min, self._obs_max
        if total == 0:
            return math.nan
        target = q * total
        cum = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cum + c >= target:
                if i == 0:
                    lo, hi = lo_seen, min(self._min, hi_seen)
                elif i == len(counts) - 1:
                    lo, hi = max(self._edges[-1], lo_seen), hi_seen
                else:
                    lo, hi = self._edges[i - 1], self._edges[i]
                lo = max(lo, lo_seen)
                hi = min(hi, hi_seen)
                if hi < lo:
                    hi = lo
                frac = (target - cum) / c
                return float(lo + frac * (hi - lo))
            cum += c
        return float(hi_seen)       # pragma: no cover - numeric safety net

    def percentiles(self) -> dict:
        """The standard latency summary: p50 / p95 / p99 (or ``None``)."""
        if self._count == 0:
            return {"p50": None, "p95": None, "p99": None}
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Process-global, thread-safe home of every labeled series.

    ``counter(name, labels)`` / ``gauge(...)`` / ``histogram(...)`` are
    get-or-create: the first call for a ``(name, labels)`` pair builds
    the metric, later calls return the same object (so handles may be
    cached by hot loops). Registering one name under two kinds is a
    bug and raises.
    """

    def __init__(self, *, max_spans: int = 64) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelKey], object] = {}
        self._kinds: dict[str, str] = {}
        self._spans: deque = deque(maxlen=max_spans)
        #: bumped by :meth:`clear` so hot loops caching metric handles
        #: (see class docstring) can detect a reset and re-resolve
        self.generation = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: dict | None,
                       description: str | None = None, **options):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise ParameterError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"cannot re-register as {kind}")
            if description and metric.description is None:
                metric.description = description
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if metric.kind != kind:
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, cannot re-register as {kind}")
                return metric
            if metric is None:
                seen = self._kinds.get(name)
                if seen is not None and seen != kind:
                    raise ParameterError(
                        f"metric {name!r} already registered as {seen}, "
                        f"cannot re-register as {kind}")
                metric = _KINDS[kind](name, key[1], **options)
                if description:
                    # first description wins; exposition emits one HELP
                    # line per name, taken from any series carrying one
                    metric.description = description
                self._kinds[name] = kind
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels: dict | None = None, *,
                description: str | None = None) -> Counter:
        return self._get_or_create("counter", name, labels, description)

    def gauge(self, name: str, labels: dict | None = None, *,
              description: str | None = None) -> Gauge:
        return self._get_or_create("gauge", name, labels, description)

    def histogram(self, name: str, labels: dict | None = None, *,
                  description: str | None = None, **options) -> Histogram:
        return self._get_or_create("histogram", name, labels, description,
                                   **options)

    # ------------------------------------------------------------------
    def get(self, name: str, labels: dict | None = None):
        """The existing series for ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def series(self) -> list:
        """Every live metric, sorted by ``(name, labels)``."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def record_span(self, span) -> None:
        """Keep a finished root span for snapshot export (bounded)."""
        self._spans.append(span)

    def spans(self) -> list:
        """The most recent finished root trace trees."""
        return list(self._spans)

    def clear(self) -> None:
        """Drop every series and retained span (tests, bench resets)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._spans.clear()
            self.generation += 1

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MetricsRegistry(series={len(self._metrics)}, "
                f"spans={len(self._spans)})")


# ----------------------------------------------------------------------
# process-global registry + the one-branch enable guard
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_ENABLED = False


def enabled() -> bool:
    """Whether instrumentation should record (the per-call-site guard)."""
    return _ENABLED


def set_enabled(on: bool) -> bool:
    """Turn the process-global metrics collection on/off; returns the
    previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumented path records to."""
    return _REGISTRY


def reset() -> None:
    """Clear the global registry (collection stays in whatever state)."""
    _REGISTRY.clear()


class capture:
    """Context manager: enable metrics into a clean global registry.

    ::

        with obs.capture() as registry:
            engine.topk([0, 1], k=5)
        print(registry.get("serving_topk_seconds", ...).count)

    On exit the previous enabled/disabled state is restored; the
    collected series stay in the registry for inspection (pass
    ``clear_after=True`` to drop them too).
    """

    def __init__(self, *, clear: bool = True,
                 clear_after: bool = False) -> None:
        self._clear = clear
        self._clear_after = clear_after
        self._previous: bool | None = None

    def __enter__(self) -> MetricsRegistry:
        if self._clear:
            reset()
        self._previous = set_enabled(True)
        return _REGISTRY

    def __exit__(self, *exc) -> None:
        set_enabled(self._previous)
        if self._clear_after:
            reset()
