"""Order statistics used to report timings."""

from __future__ import annotations

import math

# Candidate reporting percentiles, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _rank(q: float, n: int) -> int:
    """1-based nearest-rank position of the q-th percentile of n samples."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def reporting_percentile(n: int) -> float | None:
    """Highest percentile in PERCENTILES with at least MIN_BEYOND of n samples
    above it, or None when no percentile has that many."""
    best = None
    for q in PERCENTILES:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q
    return best


def summary(values) -> dict:
    """Median, reporting percentile and sample count of a list of timings."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": median(ordered)}
    q = reporting_percentile(len(ordered))
    if q is not None:
        out["percentile"] = q
        out["value"] = float(ordered[_rank(q, len(ordered)) - 1])
    return out


def describe(name: str, values, unit: str) -> str:
    """One report line: median, reporting percentile (when one exists) and n."""
    return format_summary(name, summary(values), unit)


def format_summary(name: str, s: dict, unit: str) -> str:
    text = f"{name} {s['median']:.6g} {unit} (median of n={s['n']}"
    if "percentile" in s:
        text += f", p{s['percentile']:g} {s['value']:.6g} {unit}"
    else:
        text += f", no percentile: fewer than {2 * MIN_BEYOND} samples"
    return text + ")"
