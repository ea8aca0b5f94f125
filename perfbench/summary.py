"""Aggregation of worker rounds into the reported metrics."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from speed import scaled

PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Value at percentile p (nearest rank) and the number of samples above it."""
    n = len(sorted_values)
    k = _rank(p, n)
    return sorted_values[k - 1], n - k


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int) -> float:
    """Highest percentile of ``PERCENTILES`` with at least ten of n samples
    beyond it; 100 when there are too few samples for any."""
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return 100.0


def op_times(r: dict) -> list[float]:
    """A round's op times at reference speed."""
    return [scaled(op["s"], op["probe"]) for op in r["ops"]]


def per_op_median(rounds: list[dict]) -> list[float]:
    """Each op's median time over rounds that ran the same op list."""
    return [statistics.median(times) for times in zip(*(op_times(r) for r in rounds))]


def round_wall(r: dict) -> float:
    return sum(op_times(r))


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail of per-op latencies, one sample per op."""
    values = sorted(latencies)
    p = tail_percentile(len(values))
    tail, beyond = nearest_rank(values, p)
    return {
        "p50": statistics.median(values),
        "tail": tail,
        "tail_percentile": p,
        "tail_beyond": beyond,
        "samples": len(values),
    }


def failure_counts(rounds: list[dict]) -> dict:
    out = {"attempted": 0, "error": 0, "timeout": 0, "wrong": 0}
    for r in rounds:
        for op in r["ops"]:
            out["attempted"] += 1
            if op["status"] != "ok":
                out[op["status"]] += 1
    out["failed"] = out["error"] + out["timeout"] + out["wrong"]
    return out


def failed_ops(rounds: list[dict]) -> list[str]:
    """Distinct failing ops, named with their status and error."""
    seen = {}
    for r in rounds:
        for op in r["ops"]:
            if op["status"] != "ok":
                why = op["error"] or op.get("check_error") or ""
                seen.setdefault(op["label"], f"{op['status']} {why}".strip())
    return [f"{label}: {why}" for label, why in seen.items()]


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def median_metrics(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
