"""Order statistics and the regression rule of the end-to-end benchmark.

The rules live here so the runner, ``compare`` and the self-test share
one definition of each:

- a tail percentile is reported only when at least
  :data:`MIN_TAIL_SAMPLES` samples lie beyond it (nearest-rank);
- throughput is the median over slices of consecutive operations;
- a metric's run-to-run spread is the distance between its first and
  third quartile (``statistics.quantiles(values, n=4)``) as a share of
  its median;
- a change regresses a metric when its median is worse than the
  parent's by more than the metric's bound, unless either side's own
  spread exceeds the bound, which leaves the pair *unresolved* — except
  when the two sides do not overlap (every change run reads better, or
  every one worse, than every parent run).  Either side with fewer
  than :data:`MIN_RUNS` runs has no spread to speak of, so the pair is
  *too-few-runs* and not judged at all.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence

__all__ = ["MIN_TAIL_SAMPLES", "MIN_RUNS", "percentile", "tail_percentile",
           "throughput", "spread", "compare_workload"]

#: A percentile above the median needs this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Runs each side of a comparison needs before its spread is judged.
MIN_RUNS = 5

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Slices of a run's operations whose median throughput is reported.
THROUGHPUT_SLICES = 20


def percentile(values: Sequence[float], q: float) -> float | None:
    """The nearest-rank ``q``-th percentile, or ``None`` when refused.

    Above the median the rule applies: with ``n`` samples the value at
    rank ``ceil(q/100 * n)`` has ``n - rank`` samples beyond it, and
    fewer than :data:`MIN_TAIL_SAMPLES` of those make the percentile a
    statement about a handful of runs, so it is refused.
    """
    if not values or not 0.0 < q <= 100.0:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    if q > 50.0 and len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest reportable tail percentile."""
    for q in TAIL_LADDER:
        value = percentile(values, q)
        if value is not None:
            return q, value
    return None


def throughput(latencies: Sequence[float], tasks: Sequence[int]) -> float:
    """Tasks per second: the median over :data:`THROUGHPUT_SLICES` slices.

    The operations, in the order they ran, are cut into equal slices of
    consecutive ones (one operation each when there are fewer), and
    each slice's finished tasks are divided by its summed latency.  A
    stall that lengthens a few operations then moves one slice, not
    the whole run's sum.
    """
    size = max(1, len(latencies) // THROUGHPUT_SLICES)
    return statistics.median(
        sum(tasks[i:i + size]) / sum(latencies[i:i + size])
        for i in range(0, len(latencies) - size + 1, size))


def spread(values: Sequence[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2)."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def _worse_share(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    if better == "lower":
        return (change - parent) / abs(parent)
    return (parent - change) / abs(parent)


def compare_workload(parent: Sequence[Mapping], change: Sequence[Mapping],
                     metrics: Sequence[Mapping]) -> list[dict]:
    """Apply each end-to-end metric's bound to one workload's runs.

    ``parent`` and ``change`` are lists of run records (the JSON object
    the runner prints); ``metrics`` are BENCHMARK.json's
    ``end_to_end`` entries.  Returns one verdict per metric:
    ``ok``, ``improved``, ``regressed``, ``unresolved``, ``missing``
    or ``too-few-runs``.
    """
    verdicts = []
    for metric in metrics:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        a = [run["metrics"][name]["value"] for run in parent
             if name in run.get("metrics", {})]
        b = [run["metrics"][name]["value"] for run in change
             if name in run.get("metrics", {})]
        if not a or not b:
            verdicts.append({"metric": name, "verdict": "missing"})
            continue
        if min(len(a), len(b)) < MIN_RUNS:
            verdicts.append({"metric": name, "verdict": "too-few-runs",
                             "runs": (len(a), len(b))})
            continue
        median_a, median_b = statistics.median(a), statistics.median(b)
        worse = _worse_share(median_a, median_b, better)
        spreads = (spread(a), spread(b))
        noisy = any(s is None or s > bound for s in spreads)
        separated = max(b) < min(a) or min(b) > max(a)
        if noisy and not separated:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
        elif worse < -bound:
            verdict = "improved"
        else:
            verdict = "ok"
        verdicts.append({"metric": name, "verdict": verdict,
                         "parent": median_a, "change": median_b,
                         "worse": worse, "bound": bound,
                         "spread_parent": spreads[0],
                         "spread_change": spreads[1]})
    return verdicts
