"""HTTP load for the serving workloads: open loop, closed loop, summaries.

All load comes from one process. Each client thread owns one keep-alive
connection, and the number of threads is capped at ``os.cpu_count()``,
so on a small box the generator cannot out-schedule the server it is
measuring.

* :func:`open_loop` sends request ``i`` at its due time whether or not
  earlier requests have finished (independent users). Latency is timed
  from the *due* time, so a stall also charges the requests that queued
  behind it; how late each request actually left is its generator lag.
* :func:`closed_loop` sends each thread's next request only after the
  previous one returned (callers that wait for a reply).

A request that raises or returns a non-200 status is a failure: it
counts in the failed total and misses every latency limit.
"""

from __future__ import annotations

import http.client
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["Client", "Sample", "closed_loop", "max_connections",
           "open_loop", "percentile", "poisson_schedule", "summarize"]


def max_connections(requested: int) -> int:
    """``requested`` capped at the CPU count (and at least one)."""
    return max(1, min(int(requested), os.cpu_count() or 1))


@dataclass(frozen=True)
class Sample:
    """One request. Times are seconds after the phase started.

    ``due`` is when the schedule wanted the request sent (closed loop:
    when it was sent), ``sent`` when it left, ``done`` when the response
    was read.
    """

    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Due time to response; infinite for a failed request."""
        return self.done - self.due if self.ok else math.inf

    @property
    def service(self) -> float:
        """Send to response, without the client-side wait."""
        return self.done - self.sent if self.ok else math.inf

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return max(0.0, self.sent - self.due)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation; NaN if empty.

    Infinite values (failed requests) sort last, so they raise the tail
    instead of disappearing from it.
    """
    data = np.sort(np.asarray(list(values), dtype=np.float64))
    if data.size == 0:
        return math.nan
    pos = (data.size - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, data.size - 1)
    frac = pos - lo
    if frac == 0 or data[hi] == data[lo]:
        return float(data[lo])
    return float(data[lo] + (data[hi] - data[lo]) * frac)


def summarize(samples: list[Sample], *, duration: float,
              limit: float) -> dict:
    """Median latency (ms), goodput and generator lag for one phase.

    ``limit`` is the latency limit in seconds; goodput counts requests
    that succeeded within it, per second of ``duration``.
    """
    latencies = [s.latency for s in samples]
    good = sum(1 for s in samples if s.latency <= limit)
    return {
        "p50_ms": percentile(latencies, 50) * 1e3,
        "service_p50_ms": percentile((s.service for s in samples), 50) * 1e3,
        "goodput": good / duration,
        "lag_p99_ms": percentile((s.lag for s in samples), 99) * 1e3,
    }


def poisson_schedule(rng: np.random.Generator, rate: float,
                     duration: float) -> np.ndarray:
    """Due times (seconds) of Poisson arrivals at ``rate`` over ``duration``."""
    count = int(rate * duration * 1.5) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return due[due < duration]


class Client:
    """One keep-alive HTTP connection that reconnects after a failure."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0):
        self._address = (host, port)
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, bytes]:
        """One request; returns ``(status, response body)``."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self._address, timeout=self._timeout)
        try:
            self._conn.request(method, path, body=body,
                               headers=headers or {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _attempt(send, client: Client, index: int, errors: list) -> bool:
    # The load loop must keep running whatever one request does: any
    # exception is that request's failure, recorded and counted.
    try:
        return bool(send(client, index))
    except Exception as exc:    # noqa: BLE001 - counted as a failure
        if len(errors) < 5:
            errors.append(f"request {index}: {type(exc).__name__}: {exc}")
        return False


def _run_threads(worker, clients: list[Client]) -> None:
    threads = [threading.Thread(target=worker, args=(client,),
                                name=f"loadgen-{i}", daemon=True)
               for i, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()


def open_loop(send, due: np.ndarray, clients: list[Client], *,
              first_index: int = 0,
              errors: list | None = None) -> list[Sample]:
    """Send request ``first_index + i`` at ``due[i]`` seconds after the
    start; returns the samples in index order.

    ``send(client, index)`` performs a request and returns whether it
    succeeded; one thread per client calls it.
    """
    errors = [] if errors is None else errors
    samples: list[Sample | None] = [None] * len(due)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def worker(client: Client) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(due):
                return
            delay = start + due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter() - start
            ok = _attempt(send, client, first_index + i, errors)
            samples[i] = Sample(first_index + i, float(due[i]), sent,
                                time.perf_counter() - start, ok)

    _run_threads(worker, clients)
    return [s for s in samples if s is not None]


def closed_loop(send, duration: float, clients: list[Client], *,
                first_index: int = 0,
                errors: list | None = None) -> list[Sample]:
    """Each client sends back to back for ``duration`` seconds.

    Request indices continue from ``first_index``; returns the samples
    in index order.
    """
    errors = [] if errors is None else errors
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [first_index]
    start = time.perf_counter()

    def worker(client: Client) -> None:
        while time.perf_counter() - start < duration:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            sent = time.perf_counter() - start
            ok = _attempt(send, client, i, errors)
            sample = Sample(i, sent, sent, time.perf_counter() - start, ok)
            with lock:
                samples.append(sample)

    _run_threads(worker, clients)
    samples.sort(key=lambda s: s.index)
    return samples
