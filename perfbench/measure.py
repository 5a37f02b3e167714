"""Measurement helpers shared by every workload.

One place for: timed repeats under a time budget, median and
quartiles, the highest percentile that still has at least ten samples
beyond it (reported with its sample count), peak memory, host
information, and the one-line JSON result envelope the runner prints.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Callable

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float], min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """``(p, value)``: the highest percentile in :data:`TAIL_PERCENTILES`
    with at least ``min_beyond`` samples above its rank.  Too few
    samples for any of them gives ``(100.0, max)``."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= min_beyond:
            return p, percentile(values, p)
    return 100.0, max(values)


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles, extremes and tail of a sample, with its size."""
    if not values:
        raise ValueError("summary of no values")
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    p, value = tail(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "tail_p": p,
        "tail": value,
    }


def timed_repeats(
    fn: Callable[[int], Any],
    budget_s: float,
    min_repeats: int = 2,
) -> list[tuple[float, Any]]:
    """Call ``fn(i)`` until ``budget_s`` is spent; returns ``(wall_s,
    result)`` per call.  At least ``min_repeats`` calls run, and a call
    that starts inside the budget runs to completion."""
    out: list[tuple[float, Any]] = []
    start = time.perf_counter()
    while len(out) < min_repeats or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        result = fn(len(out))
        out.append((time.perf_counter() - t0, result))
    return out


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict[str, Any]:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def envelope(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> str:
    """The result line: ``{"correct", "attempted", "failed", "metrics"}``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        sort_keys=False,
    )


def log(*parts: Any) -> None:
    """Human-readable report lines go to stderr; stdout ends with the envelope."""
    print(*parts, file=sys.stderr, flush=True)
