"""Percentiles and span self-time, free of any grat import."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile of values.

    Refuses (ValueError) when fewer than MIN_BEYOND samples lie beyond the
    percentile's rank: a tail figure resting on a handful of samples is noise.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {max(n - rank, 0)}")
    return ordered[rank - 1]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end) pairs."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    spans is a sequence of (parent_index, start, end); parent_index is -1 for
    a root span.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(children[i], start, end)
            for i, (_, start, end) in enumerate(spans)]
