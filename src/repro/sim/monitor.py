"""Measurement instrumentation for simulations.

The paper's methodology (§3.3 "Quantitative results", P8) calls for
statistically sound observation of running ecosystems.  This module
provides the two workhorse instruments:

- :class:`Monitor` — an event-style series of (time, value) samples with
  summary statistics.
- :class:`TimeWeightedMonitor` — a piecewise-constant state variable
  (queue length, machines busy) whose statistics are weighted by how long
  each value was held.

Sampling-path note: since the streaming telemetry layer landed
(:mod:`repro.observability.streaming`), :class:`Monitor` is its gauge
sample *store* and :func:`summarize` its one statistics routine —
prefer a :class:`~repro.observability.streaming.StreamingPipeline`
watch over hand-rolled periodic sampling loops; this module remains
the storage/summary primitive underneath, not a second pipeline.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

__all__ = ["Monitor", "TimeWeightedMonitor", "summarize"]


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Basic descriptive statistics of ``values``.

    Returns count/mean/std/min/max and the 50th, 95th and 99th
    percentiles (nearest-rank).  Empty input yields NaNs with count 0.
    """
    n = len(values)
    if n == 0:
        nan = float("nan")
        return {"count": 0, "mean": nan, "std": nan, "min": nan,
                "max": nan, "p50": nan, "p95": nan, "p99": nan}
    ordered = sorted(values)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    def rank(q: float) -> float:
        return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]
    return {
        "count": n,
        "mean": mean,
        "std": math.sqrt(variance),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": rank(0.50),
        "p95": rank(0.95),
        "p99": rank(0.99),
    }


class Monitor:
    """Records a time-stamped series of observations."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one observation at ``time``."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"observations must be time-ordered: {time} < {self.times[-1]}")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded values (NaN if empty)."""
        return summarize(self.values)["mean"]

    def summary(self) -> dict[str, float]:
        """Descriptive statistics of the recorded values."""
        return summarize(self.values)

    def window(self, start: float, end: float) -> list[float]:
        """Values with ``start <= time < end`` (half-open, left-closed).

        Boundary samples resolve exactly — no epsilon nudging — so this
        and :meth:`window_summary` can never disagree about which side
        of a window edge a sample falls on.
        """
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return self.values[lo:hi]

    def window_summary(self, start: float, end: float) -> dict[str, float]:
        """:func:`summarize` of samples with ``start < time <= end``.

        Right-closed to match the streaming pipeline's windows, whose
        aggregate at tick time ``T`` covers ``(T - width, T]`` — the
        sample taken *at* the tick belongs to the window it ends.
        """
        lo = bisect_right(self.times, start)
        hi = bisect_right(self.times, end)
        return summarize(self.values[lo:hi])


class TimeWeightedMonitor:
    """Tracks a piecewise-constant variable and time-weighted statistics."""

    def __init__(self, name: str = "", initial: float = 0.0,
                 start_time: float = 0.0) -> None:
        self.name = name
        self._value = float(initial)
        self._last_time = float(start_time)
        self._weighted_sum = 0.0
        self._duration = 0.0
        self._max = float(initial)
        self._min = float(initial)

    @property
    def value(self) -> float:
        """Current value of the tracked variable."""
        return self._value

    def update(self, time: float, value: float) -> None:
        """Set the variable to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError(f"time moved backwards: {time} < {self._last_time}")
        dt = time - self._last_time
        self._weighted_sum += self._value * dt
        self._duration += dt
        self._last_time = time
        value = self._value = float(value)
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    def add(self, time: float, delta: float) -> None:
        """Increment the variable by ``delta`` at ``time``."""
        self.update(time, self._value + delta)

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted mean of the variable up to ``until`` (or last update)."""
        weighted = self._weighted_sum
        duration = self._duration
        if until is not None:
            if until < self._last_time:
                raise ValueError("until lies before the last update")
            extra = until - self._last_time
            weighted += self._value * extra
            duration += extra
        if duration == 0:
            return self._value
        return weighted / duration

    @property
    def maximum(self) -> float:
        """Largest value ever held."""
        return self._max

    @property
    def minimum(self) -> float:
        """Smallest value ever held."""
        return self._min
