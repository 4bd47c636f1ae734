"""Declarative SLOs, error budgets, and multi-window burn-rate alerts.

The AtLarge vision (and the paper's sound-operation thread, §3.2/C4)
makes service-level objectives a first-class design input rather than
an after-the-fact report.  This module lets a scenario *declare* its
objectives — availability, latency, goodput, queue wait — and have a
:class:`SLOEngine` judge the running simulation against them at every
telemetry tick:

- each objective defines cumulative **good/bad event totals** read
  from the metrics registry;
- the remaining tolerance is an **error budget** (``1 - target``);
- alerting follows the SRE multi-window **burn-rate** recipe: a rule
  fires when the budget burns faster than ``threshold``× over *both*
  its long and short windows (the long window gives significance, the
  short one makes the alert resolve quickly once the burn stops);
- every fire/resolve transition lands in a deterministic
  :class:`AlertLog` stamped with simulated time.

Determinism: the engine is driven by
:class:`~repro.observability.streaming.StreamingPipeline` ticks, reads
only registry state and the virtual clock, and keeps bounded sample
rings — a fixed-seed run yields a byte-identical
:meth:`AlertLog.json` and :meth:`SLOEngine.report_json` every time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .export import dumps_deterministic
from .metrics import Histogram, MetricsRegistry
from .streaming import StreamingPipeline

__all__ = [
    "ServiceObjective",
    "AvailabilityObjective",
    "LatencyObjective",
    "QueueWaitObjective",
    "GoodputObjective",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "AlertEvent",
    "AlertLog",
    "SLOEngine",
]


class ServiceObjective:
    """Base class: one declared objective with a compliance target.

    Subclasses define :meth:`good_bad`, the cumulative ``(good, bad)``
    event totals as of ``now``.  Compliance is ``good / (good + bad)``
    and must stay at or above ``target``; the error budget is
    ``1 - target``.

    Args:
        name: Unique objective name (keys reports and alerts).
        target: Required compliance fraction, strictly inside (0, 1) —
            a target of exactly 1 leaves a zero budget for which burn
            rates are undefined.
        description: Optional human-readable intent.
    """

    def __init__(self, name: str, target: float,
                 description: str = "") -> None:
        if not 0.0 < target < 1.0:
            raise ValueError(
                f"SLO {name!r}: target must be strictly inside (0, 1), "
                f"got {target}")
        self.name = name
        self.target = float(target)
        self.description = description

    @property
    def error_budget(self) -> float:
        """Tolerated bad-event fraction: ``1 - target``."""
        return 1.0 - self.target

    def good_bad(self, metrics: MetricsRegistry,
                 now: float) -> tuple[float, float]:
        """Cumulative (good, bad) event totals as of ``now``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"target={self.target}>")


class AvailabilityObjective(ServiceObjective):
    """Success-ratio objective over a good/bad counter pair.

    Example: ``AvailabilityObjective("exec-success",
    good="datacenter.executions_finished",
    bad="datacenter.executions_interrupted", target=0.95)``.
    """

    def __init__(self, name: str, good: str, bad: str,
                 target: float = 0.99, description: str = "") -> None:
        super().__init__(name, target, description)
        self.good_counter = good
        self.bad_counter = bad

    def good_bad(self, metrics: MetricsRegistry,
                 now: float) -> tuple[float, float]:
        """Read the two counters (missing instruments count as zero)."""
        good = metrics.get(self.good_counter)
        bad = metrics.get(self.bad_counter)
        return (good.value if good is not None else 0.0,
                bad.value if bad is not None else 0.0)


class LatencyObjective(ServiceObjective):
    """Fraction of observations at or below a latency threshold.

    Reads a registry histogram; an observation is *good* when it landed
    in a bucket whose upper bound is ``<= threshold``.  For an exact
    split, make ``threshold`` one of the histogram's bucket boundaries
    (otherwise the check is conservative at bucket resolution).
    """

    def __init__(self, name: str, histogram: str, threshold: float,
                 target: float = 0.95, description: str = "") -> None:
        super().__init__(name, target, description)
        if threshold <= 0:
            raise ValueError(f"SLO {name!r}: threshold must be positive")
        self.histogram = histogram
        self.threshold = float(threshold)

    def good_bad(self, metrics: MetricsRegistry,
                 now: float) -> tuple[float, float]:
        """Split the histogram's count at the threshold bucket."""
        instrument = metrics.get(self.histogram)
        if not isinstance(instrument, Histogram):
            return 0.0, 0.0
        cut = bisect_right(instrument.boundaries, self.threshold)
        good = float(sum(instrument.counts[:cut]))
        return good, float(instrument.count) - good


class QueueWaitObjective(LatencyObjective):
    """Latency objective specialized to the scheduler's queue-wait times.

    Declares "``target`` of tasks start within ``threshold`` simulated
    seconds of submission" over ``scheduler.wait_time``.
    """

    def __init__(self, name: str, threshold: float, target: float = 0.95,
                 description: str = "") -> None:
        super().__init__(name, histogram="scheduler.wait_time",
                         threshold=threshold, target=target,
                         description=description)


class GoodputObjective(ServiceObjective):
    """Delivered-work objective against a demanded rate.

    Treats ``target_rate * now`` units of cumulative work (for example
    core-seconds on ``chaos`` counters, completions on
    ``scheduler.tasks_completed``) as demand; the shortfall is the bad
    total, capped delivery the good one.  The burn-rate machinery then
    works unchanged: sustained under-delivery burns the budget.
    """

    def __init__(self, name: str, counter: str, target_rate: float,
                 target: float = 0.9, description: str = "") -> None:
        super().__init__(name, target, description)
        if target_rate <= 0:
            raise ValueError(f"SLO {name!r}: target_rate must be positive")
        self.counter = counter
        self.target_rate = float(target_rate)

    def good_bad(self, metrics: MetricsRegistry,
                 now: float) -> tuple[float, float]:
        """Delivered-vs-demanded work totals as of ``now``."""
        instrument = metrics.get(self.counter)
        achieved = instrument.value if instrument is not None else 0.0
        expected = self.target_rate * now
        return min(achieved, expected), max(0.0, expected - achieved)


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule.

    Fires when the error budget burns at ``threshold``× the sustainable
    rate over both ``long_window`` and ``short_window`` (sim-seconds);
    resolves once the short-window burn drops back below the threshold.
    """

    name: str
    long_window: float
    short_window: float
    threshold: float

    def __post_init__(self) -> None:
        if self.long_window <= 0 or self.short_window <= 0:
            raise ValueError(f"rule {self.name!r}: windows must be positive")
        if self.short_window > self.long_window:
            raise ValueError(
                f"rule {self.name!r}: short window {self.short_window} "
                f"exceeds long window {self.long_window}")
        if self.threshold <= 0:
            raise ValueError(f"rule {self.name!r}: threshold must be positive")


#: The classic fast-page / slow-burn pair, in simulated seconds.
#: Scenario time scales vary wildly, so treat these as a template and
#: declare windows that match your run's horizon.
DEFAULT_BURN_RULES: tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", long_window=300.0, short_window=30.0,
                 threshold=14.4),
    BurnRateRule("slow", long_window=1800.0, short_window=300.0,
                 threshold=6.0),
)


@dataclass(frozen=True)
class AlertEvent:
    """One fire or resolve transition of an (objective, rule) pair."""

    time: float
    slo: str
    rule: str
    kind: str  # "fire" | "resolve"
    burn_short: float
    burn_long: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view (keys sorted downstream for stable bytes)."""
        return {"time": self.time, "slo": self.slo, "rule": self.rule,
                "kind": self.kind, "burn_short": self.burn_short,
                "burn_long": self.burn_long}


class AlertLog:
    """The deterministic, sim-timestamped record of alert transitions."""

    def __init__(self) -> None:
        self.events: list[AlertEvent] = []

    def append(self, event: AlertEvent) -> None:
        """Record one transition (engine-internal)."""
        self.events.append(event)

    def fires(self) -> list[AlertEvent]:
        """All fire transitions, in time order."""
        return [e for e in self.events if e.kind == "fire"]

    def resolves(self) -> list[AlertEvent]:
        """All resolve transitions, in time order."""
        return [e for e in self.events if e.kind == "resolve"]

    def active(self) -> set[tuple[str, str]]:
        """(slo, rule) pairs fired but not yet resolved."""
        live: set[tuple[str, str]] = set()
        for event in self.events:
            key = (event.slo, event.rule)
            if event.kind == "fire":
                live.add(key)
            else:
                live.discard(key)
        return live

    def to_json(self) -> list[dict[str, Any]]:
        """All events as dicts, in emission (= time) order."""
        return [event.to_dict() for event in self.events]

    def json(self) -> str:
        """The log as a deterministic JSON string (golden-diffable)."""
        return dumps_deterministic(self.to_json())

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class _ObjectiveState:
    """Per-objective engine state: bounded (time, good, bad) ring.

    ``times`` mirrors the samples' times in a ring of the same length,
    so a burn window's start is found by bisection.
    """

    __slots__ = ("objective", "samples", "times")

    def __init__(self, objective: ServiceObjective, max_samples: int,
                 baseline: tuple[float, float, float]) -> None:
        self.objective = objective
        self.samples = deque([baseline], maxlen=max_samples)
        self.times = deque([baseline[0]], maxlen=max_samples)

    def append(self, sample: tuple[float, float, float]) -> None:
        """Record the newest sample (the oldest falls off when full)."""
        self.samples.append(sample)
        self.times.append(sample[0])

    def since(self, cutoff: float) -> tuple[float, float, float]:
        """The newest sample at or before ``cutoff`` (within 1e-9).

        Falls back to the oldest sample when every sample is newer.
        Sample times never decrease, so bisection finds it.
        """
        index = bisect_right(self.times, cutoff + 1e-9)
        return self.samples[index - 1 if index else 0]


class SLOEngine:
    """Evaluates declared objectives at every streaming-telemetry tick.

    Args:
        pipeline: The tick source; the engine subscribes to
            ``pipeline.on_tick`` and needs no windows of its own.
        objectives: The declared :class:`ServiceObjective` set; names
            must be unique.
        rules: Burn-rate rules applied to every objective (default
            :data:`DEFAULT_BURN_RULES`).

    Subscribe adaptation logic via :attr:`on_alert` — e.g.
    :meth:`repro.autoscaling.controller.AutoscalingController.respond_to_alerts`
    or :class:`repro.selfaware.feedback.AlertDrivenAdaptation` — to
    close the paper's monitoring → analysis → action loop.
    """

    def __init__(self, pipeline: StreamingPipeline,
                 objectives: Iterable[ServiceObjective],
                 rules: Sequence[BurnRateRule] = DEFAULT_BURN_RULES) -> None:
        self.pipeline = pipeline
        self.metrics = pipeline.metrics
        self.objectives = list(objectives)
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        if not self.objectives:
            raise ValueError("an SLOEngine needs at least one objective")
        self.rules = tuple(rules)
        if not self.rules:
            raise ValueError("an SLOEngine needs at least one rule")
        max_window = max(rule.long_window for rule in self.rules)
        ring = int(max_window / pipeline.interval + 0.5) + 2
        now = pipeline.sim.now
        self._states = [
            _ObjectiveState(objective, ring,
                            (now, *objective.good_bad(self.metrics, now)))
            for objective in self.objectives
        ]
        self.alerts = AlertLog()
        #: Subscribers called with each :class:`AlertEvent` as it lands.
        self.on_alert: list[Callable[[AlertEvent], None]] = []
        self._active: dict[tuple[str, str], bool] = {}
        pipeline.on_tick.append(self._evaluate)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, now: float, _emitted: dict) -> None:
        for state in self._states:
            objective = state.objective
            good, bad = objective.good_bad(self.metrics, now)
            state.append((now, good, bad))
            budget = objective.error_budget
            for rule in self.rules:
                burn_long = self._burn(state, now, rule.long_window, budget)
                burn_short = self._burn(state, now, rule.short_window, budget)
                key = (objective.name, rule.name)
                active = self._active.get(key, False)
                if (not active and burn_long >= rule.threshold
                        and burn_short >= rule.threshold):
                    self._transition(key, now, "fire", burn_short, burn_long)
                elif active and burn_short < rule.threshold:
                    self._transition(key, now, "resolve", burn_short,
                                     burn_long)

    def _transition(self, key: tuple[str, str], now: float, kind: str,
                    burn_short: float, burn_long: float) -> None:
        self._active[key] = kind == "fire"
        event = AlertEvent(time=now, slo=key[0], rule=key[1], kind=kind,
                           burn_short=burn_short, burn_long=burn_long)
        self.alerts.append(event)
        for callback in tuple(self.on_alert):
            callback(event)

    @staticmethod
    def _burn(state: _ObjectiveState, now: float, window: float,
              budget: float) -> float:
        """Error fraction over the trailing window, as a budget multiple."""
        _, good_then, bad_then = state.since(now - window)
        _, good_now, bad_now = state.samples[-1]
        delta_bad = bad_now - bad_then
        delta_total = (good_now - good_then) + delta_bad
        if delta_total <= 0:
            return 0.0
        return (delta_bad / delta_total) / budget

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, dict[str, float]]:
        """Deterministic per-objective verdicts, keyed by objective name.

        Each entry carries the target, cumulative good/bad totals,
        achieved compliance, the consumed error-budget fraction
        (``> 1`` means blown), alert counts, and an ``ok`` flag
        (budget intact *and* nothing still firing).
        """
        active = self.alerts.active()
        report: dict[str, dict[str, float]] = {}
        for state in self._states:
            objective = state.objective
            _, good, bad = state.samples[-1]
            total = good + bad
            compliance = good / total if total > 0 else 1.0
            consumed = ((bad / total) / objective.error_budget
                        if total > 0 else 0.0)
            firing = sum(1 for slo, _ in active if slo == objective.name)
            fired = sum(1 for e in self.alerts.fires()
                        if e.slo == objective.name)
            report[objective.name] = {
                "target": objective.target,
                "good": good,
                "bad": bad,
                "compliance": compliance,
                "budget_consumed": consumed,
                "alerts_fired": float(fired),
                "alerts_active": float(firing),
                "ok": float(consumed <= 1.0 and firing == 0),
            }
        return report

    def report_json(self) -> str:
        """The report as a deterministic JSON string (golden-diffable)."""
        return dumps_deterministic(self.report())

    def violations(self) -> list[str]:
        """Human-readable lines for every objective whose verdict failed."""
        lines = []
        for name, entry in self.report().items():
            if not entry["ok"]:
                lines.append(
                    f"SLO {name!r} violated: compliance "
                    f"{entry['compliance']:.4f} vs target "
                    f"{entry['target']:.4f} "
                    f"(error budget {entry['budget_consumed']:.2f}x "
                    f"consumed, {int(entry['alerts_active'])} alerts "
                    f"still firing)")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SLOEngine objectives={len(self.objectives)} "
                f"rules={len(self.rules)} alerts={len(self.alerts)}>")
