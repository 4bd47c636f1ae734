"""Integration: burn-rate alerts drive autoscaling adaptation.

The tentpole acceptance criterion for the SLO layer: a fired alert
must demonstrably *cause* an adaptation — the paper's monitoring →
analysis → action loop (P4) closed end-to-end inside one simulation.
"""

import pytest

from repro.autoscaling import AutoscalingController
from repro.datacenter import Datacenter, MachineSpec, homogeneous_cluster
from repro.observability import (BurnRateRule, Observer,
                                 QueueWaitObjective, SLOEngine,
                                 StreamingPipeline)
from repro.scheduling import ClusterScheduler
from repro.sim import Simulator
from repro.workload import Task


class _PinnedAutoscaler:
    """Pathological policy: always one machine, whatever the demand."""

    name = "pinned"

    def decide(self, snapshot):
        return 1


def _overloaded_rig():
    """One leased machine, thirty queued tasks: the queue-wait SLO burns."""
    sim = Simulator()
    observer = Observer()
    observer.attach(sim)
    cluster = homogeneous_cluster("adapt", 6, MachineSpec(cores=2),
                                  machines_per_rack=3)
    datacenter = Datacenter(sim, [cluster], name="adapt-dc")
    scheduler = ClusterScheduler(sim, datacenter)
    controller = AutoscalingController(sim, datacenter, scheduler,
                                       _PinnedAutoscaler(), interval=1000.0)
    pipeline = StreamingPipeline(sim, observer.metrics, interval=1.0)
    engine = SLOEngine(
        pipeline,
        objectives=[QueueWaitObjective("fast-start", threshold=5.0,
                                       target=0.9)],
        rules=(BurnRateRule("fast", long_window=8.0, short_window=2.0,
                            threshold=2.0),))

    def arrivals(sim):
        yield sim.timeout(0.5)  # after the t=0 scale-down to one machine
        for i in range(30):
            scheduler.submit(Task(runtime=4.0, cores=1, submit_time=sim.now,
                                  name=f"load{i}"))

    sim.process(arrivals(sim))
    pipeline.attach(until=120.0)
    return sim, observer, scheduler, controller, engine


def test_burn_rate_alert_triggers_an_autoscaling_boost():
    sim, observer, scheduler, controller, engine = _overloaded_rig()
    controller.respond_to_alerts(engine, boost=3)
    assert controller.leased_machines == 6  # nothing scaled down yet
    sim.run(until=120.0)
    scheduler.stop()
    # The SLO burned, an alert fired, and the boost leased machines the
    # pinned policy never would have.
    assert len(engine.alerts.fires()) >= 1
    assert controller.alert_boosts >= 1
    assert controller.leased_machines > 1
    metrics = observer.metrics.snapshot()
    assert metrics["counters"]["autoscaling.alert_boosts"] == \
        controller.alert_boosts
    boosts = [span for span in observer.tracer.spans
              if span.name == "alert-boost"]
    assert len(boosts) == controller.alert_boosts
    first_fire = engine.alerts.fires()[0].time
    assert boosts[0].start == first_fire  # same event, same sim instant


def test_boost_is_causal_not_coincidental():
    # Control run: identical scenario, nobody subscribed to alerts.
    sim, _, scheduler, controller, engine = _overloaded_rig()
    sim.run(until=120.0)
    scheduler.stop()
    assert len(engine.alerts.fires()) >= 1  # the alert still fires...
    assert controller.alert_boosts == 0     # ...but nothing reacts
    assert controller.leased_machines == 1  # pinned policy holds


def test_boost_must_be_positive():
    _, _, _, controller, engine = _overloaded_rig()
    with pytest.raises(ValueError):
        controller.respond_to_alerts(engine, boost=0)
