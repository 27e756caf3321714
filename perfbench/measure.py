"""The arithmetic behind every number the benchmark reports.

Kept free of I/O and of the ``repro`` package so ``selftest.py`` can check
it in isolation: percentiles and the rule that decides which tail
percentile a sample supports, the union of child intervals that turns a
span's duration into its self time, ratios with an explicit base, and the
total-variation bound an ensemble must meet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

#: Tail percentiles considered for the reported-only tail figure.
PERCENTILE_LADDER = (50, 90, 99, 99.9, 99.99)

#: A percentile is supported when at least this many samples rank above it.
MIN_BEYOND = 10

#: Standard deviations of sampling noise allowed per outcome frequency.
TV_Z = 5.0
#: Total-variation allowance for the design's own finite-gamma decision
#: error, which does not shrink with the trial count (Example 1 at
#: gamma = 1e3 sits well inside it).
TV_ALLOWANCE = 0.01


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default method).

    The value sits at fractional rank ``(n - 1) * q / 100`` of the sorted
    sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q``-th percentile.

    ``n - ceil(n * q / 100)``, computed exactly (``0.9 * 100`` is not 90 in
    floating point).
    """
    return n - math.ceil(Fraction(str(q)) * n / 100)


def highest_supported_percentile(n: int) -> "float | None":
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    best = None
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def tail_report(samples: Sequence[float]) -> "dict | None":
    """The reported-only tail figure: highest supported percentile, value, count."""
    q = highest_supported_percentile(len(samples))
    if q is None:
        return None
    return {"percentile": q, "value": percentile(samples, q), "samples": len(samples)}


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to ``[start, end]``; overlapping ones (children
    running on other threads) count once.
    """
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if min(end, b) > max(start, a)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no base to share."""
    return part / whole if whole > 0 else 0.0


def hit_ratio(hits: int, misses: int) -> float:
    """Cache hits over lookups (hits plus misses); 0 with no lookups."""
    return share(hits, hits + misses)


def tv_bound(target: Mapping[str, float], n_trials: int) -> float:
    """Largest total-variation distance an ``n_trials`` ensemble may show.

    Sampling noise: each outcome frequency has standard deviation
    ``sqrt(p (1 - p) / n)``; the total variation is half the summed absolute
    deviations, bounded here at ``TV_Z`` standard deviations each, plus
    ``TV_ALLOWANCE``.
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    spread = sum(math.sqrt(p * (1.0 - p) / n_trials) for p in target.values())
    return TV_ALLOWANCE + 0.5 * TV_Z * spread


def total_variation(
    counts: Mapping[str, int], n_trials: int, target: Mapping[str, float]
) -> float:
    """Total variation of outcome ``counts`` over ``n_trials`` from ``target``.

    Every trial counts: trials without a target outcome (undecided ones,
    unknown labels, or trials missing from ``counts``) form one extra outcome
    whose target probability is 0, so an ensemble that leaves trials
    undecided cannot pass on the proportions of the rest.
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    matched = sum(counts.get(label, 0) for label in target)
    deviation = sum(abs(counts.get(label, 0) / n_trials - p) for label, p in target.items())
    return 0.5 * (deviation + abs(n_trials - matched) / n_trials)
