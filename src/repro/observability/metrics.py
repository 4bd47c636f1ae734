"""Pull-based metrics: counters, gauges, and fixed-bucket histograms.

The paper's self-awareness challenge (C2) needs ecosystems that can
quantify their own behaviour; its methodology thread (P6) needs those
numbers to be *reproducible*.  Both shape this module:

- Instruments are **pull-based**: code updates them in place, and a
  consumer asks the :class:`MetricsRegistry` for a
  :meth:`~MetricsRegistry.snapshot` when it wants the current state —
  there is no background flushing that could perturb event order.
- Histograms use **fixed bucket boundaries** chosen at creation time,
  so the exported snapshot of a fixed-seed simulation is bit-identical
  across runs.  Adaptive bucketing would make output depend on
  observation order in ways that are hostile to regression testing.

Instruments are named hierarchically (``"scheduler.wait_time"``); the
snapshot sorts by name, so serializing it with
:func:`repro.observability.export.dumps_deterministic` yields stable
bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isnan
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "quantile_from_counts",
]


def quantile_from_counts(boundaries: Sequence[float], counts: Sequence[int],
                         total: int, q: float, overflow: float) -> float:
    """Quantile upper bound from fixed-bucket counts.

    The shared estimator behind :meth:`Histogram.quantile` and the
    streaming pipeline's window aggregates: find the first bucket whose
    cumulative count reaches ``q * total`` and return its upper
    boundary (``overflow`` — typically the max observation seen — for
    the implicit last bucket).  Deterministic and monotone in ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if total <= 0:
        return float("nan")
    target = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= target and bucket_count:
            if index < len(boundaries):
                return boundaries[index]
            return overflow
    return overflow

#: Default histogram bucket upper bounds (in whatever unit the metric
#: uses, typically sim-seconds).  Roughly logarithmic, wide enough for
#: both sub-second FaaS latencies and multi-hour batch waits; the
#: overflow bucket is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing total (events, core-seconds, dollars)."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current accumulated total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self._value += amount


class Gauge:
    """A value that can move both ways (queue length, leased machines)."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value of the gauge."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (may be negative)."""
        self._value += delta


class Histogram:
    """A distribution with *fixed* bucket boundaries.

    Buckets are upper-bound inclusive: an observation ``v`` lands in the
    first bucket whose boundary satisfies ``v <= boundary``; values
    beyond the last boundary land in the implicit overflow bucket, so
    ``len(counts) == len(boundaries) + 1``.  Because the boundaries
    never adapt to the data, the snapshot of a deterministic simulation
    is itself deterministic.
    """

    __slots__ = ("name", "description", "boundaries", "counts",
                 "_sum", "_count", "_min", "_max")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS,
                 description: str = "") -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name}: needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name}: boundaries must be strictly increasing: "
                f"{bounds}")
        self.name = name
        self.description = description
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if isnan(value):
            raise ValueError(f"histogram {self.name}: cannot observe NaN")
        # bisect_left keeps exact boundary hits in the bucket they bound
        # (upper-inclusive, Prometheus-style ``le`` semantics).
        self.counts[bisect_left(self.boundaries, value)] += 1
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        This is the usual fixed-bucket estimate: precise to bucket
        resolution, deterministic, and monotone in ``q``.  The overflow
        bucket reports the largest observation seen.
        """
        return quantile_from_counts(self.boundaries, self.counts,
                                    self._count, q, self._max)

    @property
    def p50(self) -> float:
        """Median estimate: the 0.50-quantile bucket upper bound."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """Tail estimate: the 0.95-quantile bucket upper bound."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """Far-tail estimate: the 0.99-quantile bucket upper bound."""
        return self.quantile(0.99)


class MetricsRegistry:
    """Names a coherent family of instruments and snapshots them.

    Instruments are created on first use (``registry.counter("x")``)
    and shared on every later lookup; asking for an existing name with
    a different instrument kind is an error, which catches accidental
    name collisions between subsystems early.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _create(self, found, kind: type, name: str, *args):
        """Register ``kind(name, *args)``: the lookup for ``name`` missed.

        The getters below return an existing instrument of the right
        kind after one dict lookup and build nothing (no closure, no
        instrument) on that path; only a miss creates an instrument,
        and only a miss can find (``found``) the name taken by another
        kind.
        """
        if found is not None:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(found).__name__}, not {kind.__name__}")
        instrument = self._instruments[name] = kind(name, *args)
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        instrument = self._instruments.get(name)
        if type(instrument) is Counter:
            return instrument
        return self._create(instrument, Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        instrument = self._instruments.get(name)
        if type(instrument) is Gauge:
            return instrument
        return self._create(instrument, Gauge, name, description)

    def histogram(self, name: str,
                  boundaries: Sequence[float] = DEFAULT_BUCKETS,
                  description: str = "") -> Histogram:
        """Get or create the histogram called ``name``.

        The ``boundaries`` argument only applies on first creation;
        later lookups return the existing instrument unchanged.
        """
        instrument = self._instruments.get(name)
        if type(instrument) is Histogram:
            return instrument
        return self._create(instrument, Histogram, name, boundaries,
                            description)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under ``name``, or ``None``.

        Read-only lookup for consumers (the streaming pipeline, SLO
        objectives) that must never create instruments as a side
        effect of observing them.
        """
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """A JSON-able, deterministically ordered view of every instrument.

        Returns a dict with ``counters`` / ``gauges`` / ``histograms``
        sections, each keyed by sorted instrument name.  Histogram
        entries carry boundaries, per-bucket counts, sum, count, and —
        once non-empty — min/max and the p50/p95/p99 bucket estimates
        (omitted while empty so no non-finite values leak into JSON).
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                entry = {
                    "boundaries": list(instrument.boundaries),
                    "counts": list(instrument.counts),
                    "count": instrument.count,
                    "sum": instrument.sum,
                }
                if instrument.count:
                    entry["min"] = instrument._min
                    entry["max"] = instrument._max
                    entry["p50"] = instrument.p50
                    entry["p95"] = instrument.p95
                    entry["p99"] = instrument.p99
                histograms[name] = entry
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
