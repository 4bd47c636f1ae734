"""The autoscaling controller: binds an autoscaler to a datacenter.

Every ``interval`` simulated seconds the controller snapshots demand,
asks its :class:`~repro.autoscaling.autoscalers.Autoscaler` for a
target, and adjusts the machine lease.  It records the demand and
supply curves as :class:`~repro.autoscaling.elasticity.StepSeries`, so
a finished run can be scored with the SPEC elasticity metrics —
exactly the experiment design of [43].
"""

from __future__ import annotations

import math
from typing import Callable

from ..datacenter.datacenter import Datacenter
from ..scheduling.scheduler import ClusterScheduler
from ..sim import Simulator
from .autoscalers import Autoscaler, AutoscalerInput
from .elasticity import ElasticityReport, StepSeries, evaluate_elasticity

__all__ = ["AutoscalingController"]


class AutoscalingController:
    """Periodic autoscaling of a datacenter's machine lease.

    Args:
        sim: The simulator.
        datacenter: The elastic platform.
        scheduler: Supplies the queued-demand signal.
        autoscaler: The scaling policy under test.
        interval: Evaluation period in simulated seconds.
        soon_eligible: Optional callable returning the number of tasks
            one dependency away from eligibility (workflow token
            look-ahead); defaults to none.
    """

    def __init__(self, sim: Simulator, datacenter: Datacenter,
                 scheduler: ClusterScheduler, autoscaler: Autoscaler,
                 interval: float = 10.0,
                 soon_eligible: Callable[[], int] | None = None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.datacenter = datacenter
        self.scheduler = scheduler
        self.autoscaler = autoscaler
        self.interval = interval
        self.soon_eligible = soon_eligible or (lambda: 0)
        self._demand_points: list[tuple[float, float]] = []
        self._supply_points: list[tuple[float, float]] = []
        self._stopped = False
        #: Emergency capacity boosts taken in response to SLO alerts
        #: (see :meth:`respond_to_alerts`).
        self.alert_boosts = 0
        self._record(initial=True)
        sim.process(self._run(), name=f"autoscaler-{autoscaler.name}")

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _snapshot(self) -> AutoscalerInput:
        queue = self.scheduler.queue
        capacity = self.datacenter.capacity
        machines = capacity.machines()
        return AutoscalerInput(
            time=self.sim.now,
            queued_cores=queue.cores,
            running_cores=capacity.used_cores_total(),
            eligible_tasks=len(queue),
            soon_eligible_tasks=self.soon_eligible(),
            machines=capacity.available_count(),
            cores_per_machine=machines[0].spec.cores if machines else 1,
            max_machines=len(machines),
        )

    def _record(self, initial: bool = False) -> None:
        snapshot = self._snapshot()
        cores_per_machine = snapshot.cores_per_machine
        demand = snapshot.demand_cores / cores_per_machine
        supply = snapshot.machines
        time = self.sim.now
        if initial or not self._demand_points or (
                self._demand_points[-1][0] < time):
            self._demand_points.append((time, demand))
            self._supply_points.append((time, float(supply)))

    def _run(self):
        while not self._stopped:
            snapshot = self._snapshot()
            target = self.autoscaler.decide(snapshot)
            before = self.leased_machines
            self.datacenter.scale_to(target)
            self._record()
            observer = self.sim.observer
            if observer is not None:
                after = self.leased_machines
                metrics = observer.metrics
                metrics.gauge("autoscaling.machines").set(float(after))
                metrics.gauge("autoscaling.demand_cores").set(
                    float(snapshot.demand_cores))
                if after != before:
                    direction = ("scale_ups" if after > before
                                 else "scale_downs")
                    metrics.counter(f"autoscaling.{direction}").inc()
                    observer.tracer.instant(
                        "autoscale", category="autoscaling",
                        attrs={"target": target, "before": before,
                               "after": after})
            yield self.sim.timeout(self.interval)

    def stop(self) -> None:
        """Stop the control loop at the next tick."""
        self._stopped = True

    def respond_to_alerts(self, engine, boost: int = 1) -> None:
        """Lease extra machines the moment a burn-rate alert fires.

        Subscribes to an :class:`~repro.observability.slo.SLOEngine`
        (anything with an ``on_alert`` list works): every ``fire``
        event immediately leases ``boost`` machines beyond the current
        supply, without waiting for the next periodic evaluation — the
        paper's monitoring → analysis → action loop closed at alert
        latency rather than control-period latency.  Resolve events
        are ignored; the periodic policy scales back down on its own.
        """
        if boost < 1:
            raise ValueError(f"boost must be at least 1, got {boost}")

        def _on_alert(event) -> None:
            if event.kind != "fire":
                return
            self.alert_boosts += 1
            before = self.leased_machines
            self.datacenter.scale_to(before + boost)
            self._record()
            observer = self.sim.observer
            if observer is not None:
                observer.metrics.counter("autoscaling.alert_boosts").inc()
                observer.metrics.gauge("autoscaling.machines").set(
                    float(self.leased_machines))
                observer.tracer.instant(
                    "alert-boost", category="autoscaling",
                    attrs={"slo": event.slo, "rule": event.rule,
                           "before": before, "after": self.leased_machines})

        engine.on_alert.append(_on_alert)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @property
    def leased_machines(self) -> int:
        """Machines currently leased."""
        return self.datacenter.capacity.available_count()

    def demand_series(self) -> StepSeries:
        """Demand (in machine-equivalents) over the run so far."""
        return StepSeries(self._dedupe(self._demand_points))

    def supply_series(self) -> StepSeries:
        """Leased machines over the run so far."""
        return StepSeries(self._dedupe(self._supply_points))

    @staticmethod
    def _dedupe(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
        deduped: list[tuple[float, float]] = []
        for time, value in points:
            if deduped and math.isclose(deduped[-1][0], time):
                deduped[-1] = (time, value)
            else:
                deduped.append((time, value))
        return deduped

    def elasticity(self, start: float | None = None,
                   end: float | None = None) -> ElasticityReport:
        """SPEC elasticity metrics over ``[start, end)`` of the run."""
        start = 0.0 if start is None else start
        end = self.sim.now if end is None else end
        return evaluate_elasticity(self.demand_series(),
                                   self.supply_series(), start, end)
