"""Order statistics used for every reported timing."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def round_means(records, key: str) -> list[float]:
    """Mean of `key` over the builds of each round, in round order."""
    rounds: dict[int, list[float]] = {}
    for rec in records:
        rounds.setdefault(rec["round"], []).append(rec[key])
    return [statistics.fmean(values) for _, values in sorted(rounds.items())]
