"""The profiled step against the one it replaced.

``Simulator._step_profiled`` resolves each callback's label to its
subsystem's bucket through the profiler's bounded label map and adds to
the bucket in place.  The reference below is the version that called
``classify()`` and ``record()`` per callback, kept verbatim.  Patched
onto ``Simulator`` it must give the same ``report()``, the same
``wall_report()`` keys, the same event count and the same result digest
as the label map, on a scenario with SLOs, failures and retries, on an
event with two callbacks from different subsystems, and on an event
with no callback.
"""

from __future__ import annotations

import dataclasses
import heapq
from pathlib import Path
from time import perf_counter

import pytest

from repro.datacenter import Datacenter, MachineSpec, homogeneous_cluster
from repro.observability import Observer
from repro.observability.profiling import LABEL_CACHE_SIZE
from repro.scenario import ScenarioSpec
from repro.scheduling import ClusterScheduler
from repro.sim import Event, Simulator
from repro.sim.events import NO_CALLBACKS
from repro.workload import Task

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


# ---------------------------------------------------------------------------
# The reference: classify() and record() per callback (verbatim)
# ---------------------------------------------------------------------------
def _step_profiled(self, profiler) -> Event:
    """Pop and deliver one event, attributing its cost per subsystem.

    The virtual-time advance is charged to the subsystem of the
    event that moved the clock; each callback's wall time is
    charged to the subsystem named by the callback's owner (the
    process it resumes, or the task execution it advances),
    falling back to the event's own name, then to the kernel.
    """
    previous = self._now
    self._now, _, event = heapq.heappop(self._queue)
    sim_dt = self._now - previous
    event_label = getattr(event, "name", "") or ""
    callbacks = event.callbacks
    event.callbacks = None
    primary: str | None = None
    if callbacks is not NO_CALLBACKS:
        if type(callbacks) is not list:
            callbacks = (callbacks,)
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            label = getattr(owner, "name", None) or event_label
            subsystem = profiler.classify(label)
            if primary is None:
                primary = subsystem
            started = perf_counter()
            callback(event)
            profiler.record(subsystem, wall_dt=perf_counter() - started)
    if primary is None:
        primary = profiler.classify(event_label)
    profiler.record(primary, sim_dt=sim_dt, events=1)
    return event


def _on_both(run):
    """``run()`` with the label map, then with the reference."""
    fast = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "_step_profiled", _step_profiled)
        reference = run()
    return fast, reference


def _profile(observer: Observer, sim: Simulator):
    profiler = observer.profiler
    return (profiler.report(), sorted(profiler.wall_report()),
            sim.events_processed)


def test_spec_run_matches_the_reference():
    spec = ScenarioSpec.from_json((SPECS / "chaos_slo.json").read_text())
    spec = dataclasses.replace(spec, observer=True)

    def run():
        observer = Observer(profiling=True)
        runtime = spec.build(observer=observer)
        runtime.drive()
        runtime.finalize()
        return _profile(observer, runtime.sim), runtime.result().digest()

    fast, reference = _on_both(run)
    (report, _, events), _ = fast
    assert report["datacenter"]["events"] > 0
    assert sum(entry["events"] for entry in report.values()) == events
    assert fast == reference


def _shared_and_bare_events():
    sim = Simulator()
    observer = Observer()
    observer.attach(sim)
    shared = sim.event()

    def waiter():
        yield shared

    def trigger():
        yield sim.timeout(2.0)
        shared.succeed()

    # Two owners from different subsystems wait on one event; the
    # bare timeout has no callback at all.
    sim.process(waiter(), name="exec-a")
    sim.process(waiter(), name="arrivals")
    sim.process(trigger(), name="scheduler-loop")
    sim.timeout(5.0)
    sim.run()
    return _profile(observer, sim)


def test_two_subsystems_and_no_callback_match_the_reference():
    fast, reference = _on_both(_shared_and_bare_events)
    report, wall_keys, _ = fast
    assert {"datacenter", "workload", "scheduling", "kernel"} <= set(report)
    assert wall_keys == sorted(report)
    assert fast == reference


def _many_executions(tasks: int):
    sim = Simulator()
    observer = Observer()
    observer.attach(sim)
    datacenter = Datacenter(sim, [homogeneous_cluster(
        "c", 4, MachineSpec(cores=8))])
    scheduler = ClusterScheduler(sim, datacenter)
    for i in range(tasks):
        scheduler.submit(Task(runtime=1.0, cores=1, name=f"t{i}"))
    sim.run()
    assert len(datacenter.completed_tasks) == tasks
    return observer.profiler, _profile(observer, sim)


def test_label_map_stays_bounded_over_distinct_executions():
    profiler, profile = _many_executions(2_000)
    assert 0 < len(profiler.label_buckets) <= LABEL_CACHE_SIZE
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "_step_profiled", _step_profiled)
        _, reference = _many_executions(2_000)
    assert profile == reference
