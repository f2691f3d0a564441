"""The usable CPU count, for code that sizes a thread pool.

The serving router and the HTTP tier size their thread pools from
:func:`available_cpus`. The fit pipeline runs in one process: its
sparse products and reweighting sweeps are single BLAS-backed passes.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]


def available_cpus() -> int:
    """Usable CPU count (CPU affinity mask when available)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)
