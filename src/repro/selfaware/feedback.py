"""Feedback loops up to MAPE-K self-awareness (P4, C6, [17], [95]).

The paper (P4) makes self-awareness "a key building block":
"Self-awareness includes monitoring and sensing, which give input
(feedback) to Resource Management and Scheduling."  Kounev et al.'s
definition [17] is the MAPE-K loop: Monitor, Analyze, Plan, Execute
over a shared Knowledge base.

:class:`MAPEKLoop` runs that loop periodically inside a simulation;
:class:`PIDController` is the "simple feedback loop" end of C6's
spectrum, usable as the Analyze+Plan stages for scalar targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..sim import Simulator

__all__ = ["Knowledge", "MAPEKLoop", "PIDController", "AlertDrivenAdaptation"]


@dataclass
class Knowledge:
    """The K of MAPE-K: models and state shared across loop stages."""

    facts: dict[str, Any] = field(default_factory=dict)
    history: list[tuple[float, dict[str, float]]] = field(default_factory=list)

    def remember(self, time: float, observations: Mapping[str, float]) -> None:
        """Append one observation snapshot to the history."""
        self.history.append((time, dict(observations)))

    def recent(self, metric: str, n: int = 10) -> list[float]:
        """The last ``n`` observed values of ``metric``."""
        values = [obs[metric] for _, obs in self.history if metric in obs]
        return values[-n:]


#: Monitor: () -> metric snapshot.
SensorFn = Callable[[], Mapping[str, float]]
#: Analyze: (knowledge, observations) -> symptoms.
AnalyzeFn = Callable[[Knowledge, Mapping[str, float]], Mapping[str, float]]
#: Plan: (knowledge, symptoms) -> actions.
PlanFn = Callable[[Knowledge, Mapping[str, float]], Mapping[str, float]]
#: Execute: (actions) -> None.
ExecuteFn = Callable[[Mapping[str, float]], None]


class MAPEKLoop:
    """A Monitor-Analyze-Plan-Execute loop over Knowledge, run at
    construction time and then every ``interval``."""

    def __init__(self, sim: Simulator, sensor: SensorFn, analyze: AnalyzeFn,
                 plan: PlanFn, execute: ExecuteFn,
                 interval: float = 10.0,
                 knowledge: Knowledge | None = None) -> None:
        self.sim = sim
        self.sensor = sensor
        self.analyze = analyze
        self.plan = plan
        self.execute = execute
        self.interval = interval
        self.knowledge = knowledge or Knowledge()
        self.iterations = 0
        self._ticker = sim.every(interval, lambda _now: self.step(),
                                 at_start=True, name="mape-k")

    def step(self) -> Mapping[str, float]:
        """Run one full M-A-P-E iteration; returns the actions taken."""
        observations = self.sensor()
        self.knowledge.remember(self.sim.now, observations)
        symptoms = self.analyze(self.knowledge, observations)
        actions = self.plan(self.knowledge, symptoms)
        self.execute(actions)
        self.iterations += 1
        return actions

    def stop(self) -> None:
        """Stop the loop at the next tick."""
        self._ticker.stop()


class AlertDrivenAdaptation:
    """Turns SLO burn-rate alerts into immediate adaptation triggers.

    The periodic :class:`MAPEKLoop` senses on a fixed cadence; this
    bridge adds the event-driven path the paper's P4 asks for —
    "monitoring and sensing, which give input (feedback) to Resource
    Management and Scheduling" — by subscribing to an
    :class:`~repro.observability.slo.SLOEngine` (anything with an
    ``on_alert`` list) and reacting the instant an alert lands.

    Args:
        engine: The alert source; its ``on_alert`` list gains this
            bridge as a subscriber.
        loop: Optional :class:`MAPEKLoop` whose :meth:`MAPEKLoop.step`
            runs out-of-cadence on every ``fire`` event.
        handler: Optional callable invoked with *every*
            :class:`~repro.observability.slo.AlertEvent` (fires and
            resolves) for custom reactions.

    At least one of ``loop`` / ``handler`` is required.  Every
    received event is kept in :attr:`triggered` for assertions.
    """

    def __init__(self, engine: Any, loop: MAPEKLoop | None = None,
                 handler: Callable[[Any], None] | None = None) -> None:
        if loop is None and handler is None:
            raise ValueError(
                "AlertDrivenAdaptation needs a MAPE-K loop, a handler, "
                "or both — with neither it could not adapt anything")
        self.engine = engine
        self.loop = loop
        self.handler = handler
        #: Every alert event received, in arrival order.
        self.triggered: list[Any] = []
        engine.on_alert.append(self._on_alert)

    def _on_alert(self, event: Any) -> None:
        self.triggered.append(event)
        if self.handler is not None:
            self.handler(event)
        if self.loop is not None and event.kind == "fire":
            self.loop.step()


class PIDController:
    """A discrete PID controller for scalar setpoint tracking.

    C6 approach class (i): "feedback control-based techniques".  Call
    :meth:`update` once per control period with the measured value; the
    returned control signal is the adjustment to apply.
    """

    def __init__(self, setpoint: float, kp: float = 1.0, ki: float = 0.0,
                 kd: float = 0.0,
                 output_limits: tuple[float, float] = (-float("inf"),
                                                       float("inf"))) -> None:
        if output_limits[0] > output_limits[1]:
            raise ValueError("invalid output limits")
        self.setpoint = setpoint
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.output_limits = output_limits
        self._integral = 0.0
        self._previous_error: float | None = None

    def update(self, measured: float, dt: float = 1.0) -> float:
        """One control step; returns the clamped control output."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        error = self.setpoint - measured
        self._integral += error * dt
        derivative = (0.0 if self._previous_error is None
                      else (error - self._previous_error) / dt)
        self._previous_error = error
        output = (self.kp * error + self.ki * self._integral
                  + self.kd * derivative)
        low, high = self.output_limits
        return max(low, min(high, output))

    def reset(self) -> None:
        """Clear integral and derivative state."""
        self._integral = 0.0
        self._previous_error = None
