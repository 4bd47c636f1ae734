"""Arrival processes, including the bursty ones grids exhibit (C7, [113]).

The paper (C7) notes that "grid workloads exhibit short-term burstiness"
and that workloads fragment into smaller tasks over long periods [39].
Two arrival processes cover the modeling needs:

- :class:`PoissonArrivals` — the memoryless baseline.
- :class:`MMPPArrivals` — a 2-state Markov-Modulated Poisson Process,
  the standard parsimonious model of short-term burstiness.

Burstiness is quantified by the index of dispersion for counts and the
peak-to-mean rate ratio.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Protocol, Sequence

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "index_of_dispersion",
    "peak_to_mean_ratio",
]


class ArrivalProcess(Protocol):
    """Anything that can produce a stream of arrival times."""

    def arrival_times(self, horizon: float) -> list[float]:
        """All arrival instants in ``[0, horizon)``."""
        ...  # pragma: no cover


class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` per time unit."""

    def __init__(self, rate: float, rng: random.Random | None = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.rng = rng or random.Random(0)

    def inter_arrivals(self) -> Iterator[float]:
        """Infinite stream of exponential inter-arrival gaps."""
        while True:
            yield self.rng.expovariate(self.rate)

    def arrival_times(self, horizon: float) -> list[float]:
        """All arrival instants in ``[0, horizon)``."""
        times = []
        t = 0.0
        for gap in self.inter_arrivals():
            t += gap
            if t >= horizon:
                break
            times.append(t)
        return times


class MMPPArrivals:
    """2-state Markov-Modulated Poisson Process.

    The process alternates between a *quiet* state (low rate) and a
    *burst* state (high rate); state holding times are exponential.
    With ``burst_rate >> quiet_rate`` this reproduces the short-term
    burstiness of grid traces [113] while keeping only four parameters.
    """

    def __init__(self, quiet_rate: float, burst_rate: float,
                 quiet_duration: float, burst_duration: float,
                 rng: random.Random | None = None) -> None:
        if quiet_rate <= 0 or burst_rate <= 0:
            raise ValueError("rates must be positive")
        if quiet_duration <= 0 or burst_duration <= 0:
            raise ValueError("durations must be positive")
        self.quiet_rate = quiet_rate
        self.burst_rate = burst_rate
        self.quiet_duration = quiet_duration
        self.burst_duration = burst_duration
        self.rng = rng or random.Random(0)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate."""
        total = self.quiet_duration + self.burst_duration
        return (self.quiet_rate * self.quiet_duration
                + self.burst_rate * self.burst_duration) / total

    def arrival_times(self, horizon: float) -> list[float]:
        """All arrival instants in ``[0, horizon)``."""
        times: list[float] = []
        t = 0.0
        in_burst = False
        while t < horizon:
            duration = self.rng.expovariate(
                1.0 / (self.burst_duration if in_burst else self.quiet_duration))
            rate = self.burst_rate if in_burst else self.quiet_rate
            segment_end = min(t + duration, horizon)
            arrival = t + self.rng.expovariate(rate)
            while arrival < segment_end:
                times.append(arrival)
                arrival += self.rng.expovariate(rate)
            t = segment_end
            in_burst = not in_burst
        return times


# ---------------------------------------------------------------------------
# Burstiness metrics
# ---------------------------------------------------------------------------
def _bin_counts(arrivals: Sequence[float], horizon: float,
                bin_width: float) -> list[int]:
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n_bins = max(1, int(math.ceil(horizon / bin_width)))
    counts = [0] * n_bins
    for t in arrivals:
        index = min(n_bins - 1, int(t / bin_width))
        counts[index] += 1
    return counts


def index_of_dispersion(arrivals: Sequence[float], horizon: float,
                        bin_width: float) -> float:
    """Variance-to-mean ratio of per-bin counts; 1.0 for Poisson, >1 bursty."""
    counts = _bin_counts(arrivals, horizon, bin_width)
    n = len(counts)
    mean = sum(counts) / n
    if mean == 0:
        return 0.0
    variance = sum((c - mean) ** 2 for c in counts) / n
    return variance / mean


def peak_to_mean_ratio(arrivals: Sequence[float], horizon: float,
                       bin_width: float) -> float:
    """Max per-bin rate over mean rate; large values signal bursts."""
    counts = _bin_counts(arrivals, horizon, bin_width)
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 0.0
    return max(counts) / mean
