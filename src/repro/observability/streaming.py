"""Streaming telemetry: windowed aggregation evaluated *during* the run.

PR 3's :class:`~repro.observability.metrics.MetricsRegistry` is
pull-based: instruments accumulate and somebody snapshots them at the
end.  The paper's self-awareness principle (P4, C2) asks for more —
ecosystems that judge their own behaviour *while running*.  This
module adds that judging substrate: a :class:`StreamingPipeline`
samples registry instruments at sim-time-scheduled evaluation ticks
and reduces them over **tumbling or sliding windows** into per-window
aggregates (deltas and rates for counters, distribution summaries for
gauges, count/sum/p50/p95/p99 for histograms).

Determinism contract (same as the rest of the observability layer):

- Ticks happen at exact multiples of the pipeline interval on the
  *simulated* clock, either as real simulator events
  (:meth:`StreamingPipeline.attach`, built on
  :meth:`~repro.sim.engine.Simulator.every`) or driven externally
  between events (:meth:`StreamingPipeline.advance`, used by the chaos
  harness so telemetry never keeps an otherwise-drained simulation
  alive).
- A tick at time ``T`` observes the registry state left by all events
  processed strictly before ``T`` was reached; window aggregates are
  pure functions of those samples.  Fixed seed in, byte-identical
  :meth:`StreamingPipeline.series_json` out.
- Gauge windows are summarized through the same
  :func:`repro.sim.monitor.summarize` statistics (backed by a
  :class:`repro.sim.monitor.Monitor` sample store) that the rest of
  the repository uses, so there is exactly one sampling/summary path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..sim.monitor import Monitor
from .export import dumps_deterministic
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, \
    quantile_from_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Simulator, Ticker

__all__ = ["Window", "StreamSeries", "StreamingPipeline", "watch_all"]

#: Tolerance for "is this tick time due yet" comparisons; purely guards
#: against float noise in ``k * interval`` accumulation.
_TIME_EPS = 1e-9


class Window:
    """A window specification: ``width`` seconds, emitted every ``stride``.

    ``stride=None`` (the default) makes the window **tumbling**: it
    emits one aggregate per ``width``, over disjoint spans.  A
    ``stride`` smaller than ``width`` makes it **sliding**: every
    ``stride`` seconds it emits an aggregate over the trailing
    ``width`` seconds.  Both must be positive multiples of the
    pipeline's tick interval.
    """

    __slots__ = ("width", "stride")

    def __init__(self, width: float, stride: float | None = None) -> None:
        width = float(width)
        stride = width if stride is None else float(stride)
        if width <= 0 or stride <= 0:
            raise ValueError(f"window width/stride must be positive, got "
                             f"width={width} stride={stride}")
        if stride > width:
            raise ValueError(f"stride {stride} exceeds width {width}; "
                             "that would drop observations between windows")
        self.width = width
        self.stride = stride

    @property
    def tumbling(self) -> bool:
        """Whether the window emits disjoint (non-overlapping) spans."""
        return self.stride == self.width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "tumbling" if self.tumbling else "sliding"
        return f"<Window {kind} width={self.width} stride={self.stride}>"


class StreamSeries:
    """The time-ordered window aggregates emitted for one instrument."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        #: ``(window_end_time, aggregates)`` pairs in emission order.
        self.points: list[tuple[float, dict[str, float]]] = []

    def latest(self) -> dict[str, float] | None:
        """The most recent window's aggregates, if any were emitted."""
        return self.points[-1][1] if self.points else None

    def values(self, key: str) -> list[float]:
        """One aggregate column over time (points lacking it are skipped)."""
        return [aggs[key] for _, aggs in self.points if key in aggs]

    def __len__(self) -> int:
        return len(self.points)


class _Watch:
    """Per-instrument pipeline state: window spec and sample ring."""

    __slots__ = ("window", "width_ticks", "stride_ticks", "samples",
                 "monitor", "ticks")

    def __init__(self, window: Window, width_ticks: int, stride_ticks: int,
                 baseline: tuple[float, Any]) -> None:
        self.window = window
        self.width_ticks = width_ticks
        self.stride_ticks = stride_ticks
        #: ``(time, state)`` ring: the window-start sample sits
        #: ``width_ticks`` entries behind the newest one.
        self.samples: deque[tuple[float, Any]] = deque(
            [baseline], maxlen=width_ticks + 1)
        #: Gauge sample store — the repository's one sampling path.
        self.monitor = Monitor()
        self.ticks = 0


class StreamingPipeline:
    """Windowed aggregation of registry instruments at evaluation ticks.

    Args:
        sim: The simulator whose virtual clock times the ticks.
        metrics: The registry to sample (usually ``observer.metrics``).
        interval: Tick period in simulated seconds; all window widths
            and strides must be positive multiples of it.

    Two ways to drive the ticks:

    - :meth:`attach` schedules real tick events on the simulator
      (via :meth:`~repro.sim.engine.Simulator.every`) — natural for
      scenarios that run to a horizon.
    - :meth:`advance` evaluates all due ticks up to a given time
      without enqueuing any simulator event — used by harnesses that
      drain the event queue and must not let telemetry keep the run
      alive (:meth:`repro.resilience.chaos.ChaosExperiment.run`).

    Use one or the other for a given run, not both.
    """

    def __init__(self, sim: "Simulator", metrics: MetricsRegistry,
                 interval: float = 5.0) -> None:
        if interval <= 0:
            raise ValueError(f"tick interval must be positive, got {interval}")
        self.sim = sim
        self.metrics = metrics
        self.interval = float(interval)
        self._watches: dict[str, _Watch] = {}
        self.series: dict[str, StreamSeries] = {}
        #: Subscribers called after every tick as ``cb(time, emitted)``
        #: where ``emitted`` maps instrument name to the aggregates the
        #: tick produced (empty when no window ended at this tick).
        self.on_tick: list[Callable[[float, dict[str, dict[str, float]]],
                                    None]] = []
        self.ticks = 0
        self.last_tick: float | None = None
        self._next_tick = sim.now + self.interval
        self._ticker: "Ticker | None" = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def watch(self, name: str, window: Window | None = None) -> StreamSeries:
        """Aggregate instrument ``name`` over ``window`` at every stride.

        The instrument need not exist yet; ticks before it appears
        sample an implicit zero state.  The default window is one
        tumbling tick interval.  Returns the (initially empty)
        :class:`StreamSeries` the aggregates will land in.
        """
        if name in self._watches:
            raise ValueError(f"instrument {name!r} is already watched")
        window = window or Window(self.interval)
        width_ticks = self._as_ticks(window.width, "width")
        stride_ticks = self._as_ticks(window.stride, "stride")
        baseline = (self.sim.now, self._sample(name))
        self._watches[name] = _Watch(window, width_ticks, stride_ticks,
                                     baseline)
        series = StreamSeries(name)
        self.series[name] = series
        return series

    def _as_ticks(self, seconds: float, what: str) -> int:
        ticks = round(seconds / self.interval)
        if ticks < 1 or abs(ticks * self.interval - seconds) > _TIME_EPS:
            raise ValueError(
                f"window {what} {seconds} is not a positive multiple of the "
                f"{self.interval}s tick interval")
        return ticks

    # ------------------------------------------------------------------
    # Tick drivers
    # ------------------------------------------------------------------
    def attach(self, until: float | None = None) -> "Ticker":
        """Schedule evaluation ticks as real simulator events.

        ``until`` bounds the ticks (none lands past it).  Without it
        the ticks are daemons: an open-ended run ends without waiting
        for them, and a time-bounded run delivers them to its end.
        """
        if self._ticker is not None:
            raise RuntimeError("pipeline ticks are already scheduled")
        self._ticker = self.sim.every(self.interval, self._scheduled_tick,
                                      until=until, name="telemetry-tick")
        return self._ticker

    def _scheduled_tick(self, now: float) -> None:
        self._next_tick = now + self.interval
        self._tick(now)

    def advance(self, now: float) -> int:
        """Evaluate every tick due at or before ``now``; returns how many.

        Call between simulator events (as the ``before_step`` hook of
        :meth:`~repro.sim.engine.Simulator.advance_until`, which passes
        each event's time before its ``step()``, and with
        ``now = sim.now`` once drained): each due tick then observes
        exactly the registry state left by events processed before its
        timestamp, matching what a scheduled tick event would have
        seen.
        """
        fired = 0
        while self._next_tick <= now + _TIME_EPS:
            tick_time = self._next_tick
            self._next_tick = tick_time + self.interval
            self._tick(tick_time)
            fired += 1
        return fired

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _sample(self, name: str) -> Any:
        instrument = self.metrics.get(name)
        if instrument is None:
            return None
        if isinstance(instrument, Counter):
            return instrument.value
        if isinstance(instrument, Gauge):
            return instrument.value
        if isinstance(instrument, Histogram):
            return (instrument.count, instrument.sum,
                    tuple(instrument.counts), instrument.boundaries,
                    instrument._max)
        return None

    def _tick(self, now: float) -> None:
        emitted: dict[str, dict[str, float]] = {}
        for name, watch in self._watches.items():
            state = self._sample(name)
            watch.samples.append((now, state))
            if isinstance(state, float):
                instrument = self.metrics.get(name)
                if isinstance(instrument, Gauge):
                    watch.monitor.record(now, state)
            watch.ticks += 1
            if watch.ticks % watch.stride_ticks == 0:
                aggregates = self._aggregate(name, watch, now)
                if aggregates is not None:
                    self.series[name].points.append((now, aggregates))
                    emitted[name] = aggregates
        self.ticks += 1
        self.last_tick = now
        for callback in tuple(self.on_tick):
            callback(now, emitted)

    def _aggregate(self, name: str, watch: _Watch,
                   now: float) -> dict[str, float] | None:
        instrument = self.metrics.get(name)
        then_time, then_state = watch.samples[0]
        elapsed = now - then_time
        if isinstance(instrument, Counter):
            old = then_state if isinstance(then_state, float) else 0.0
            delta = instrument.value - old
            return {"total": instrument.value, "delta": delta,
                    "rate": delta / elapsed if elapsed > 0 else 0.0}
        if isinstance(instrument, Gauge):
            start = now - watch.window.width
            summary = watch.monitor.window_summary(start, now)
            if not summary["count"]:
                return None
            summary["last"] = instrument.value
            return summary
        if isinstance(instrument, Histogram):
            count, total, counts, boundaries, max_seen = (
                instrument.count, instrument.sum, instrument.counts,
                instrument.boundaries, instrument._max)
            if isinstance(then_state, tuple):
                old_count, old_sum, old_counts = then_state[:3]
            else:
                old_count, old_sum, old_counts = 0, 0.0, (0,) * len(counts)
            delta_count = count - old_count
            delta_counts = [a - b for a, b in zip(counts, old_counts)]
            aggregates = {"count": float(delta_count),
                          "sum": total - old_sum}
            if delta_count:
                aggregates["mean"] = aggregates["sum"] / delta_count
                for label, q in (("p50", 0.50), ("p95", 0.95),
                                 ("p99", 0.99)):
                    aggregates[label] = quantile_from_counts(
                        boundaries, delta_counts, delta_count, q, max_seen)
            else:
                aggregates["mean"] = 0.0
            return aggregates
        return None  # instrument missing (or unknown kind): emit nothing

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic JSON-able view of every emitted series."""
        return {
            "interval": self.interval,
            "ticks": self.ticks,
            "series": {
                name: [[time, aggs] for time, aggs in series.points]
                for name, series in sorted(self.series.items())
            },
        }

    def series_json(self) -> str:
        """The snapshot as a deterministic JSON string (golden-diffable)."""
        return dumps_deterministic(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StreamingPipeline interval={self.interval} "
                f"watches={len(self._watches)} ticks={self.ticks}>")


def watch_all(pipeline: StreamingPipeline, names: Iterable[str],
              window: Window | None = None) -> dict[str, StreamSeries]:
    """Watch several instruments with one shared window spec."""
    return {name: pipeline.watch(name, window) for name in names}
