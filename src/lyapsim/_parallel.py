"""Thread-based trial parallelism.

Independent trials run on a ThreadPoolExecutor. The kernels are short numpy
calls that mostly hold the GIL, so threads overlap little. Results are always
merged in submission order, never by completion order, so parallel and serial
execution agree bit for bit.
LYAPSIM_THREADS caps the worker count; unset means the machine default.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def thread_count() -> int:
    raw = os.environ.get("LYAPSIM_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"LYAPSIM_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ConfigError(f"LYAPSIM_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def parallel_map(fn, items):
    """Apply fn to each item, in parallel when allowed; ordered results."""
    items = list(items)
    n_workers = min(thread_count(), len(items))
    if n_workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))
