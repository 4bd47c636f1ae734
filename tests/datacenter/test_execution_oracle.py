"""The execution event against the generator process it replaced.

``Datacenter.execute`` runs a task as a plain event that posts one
kernel event, its service timeout, and runs its completion callbacks in
place.  The reference below is the generator-process version, kept
verbatim, which posts three: a start event, the service timeout, and
its own end event.  Patched onto ``Datacenter`` it must give the same
per-task outcome (the first task that differs is named), the same
science digest and metrics snapshot (observer and profiler armed), on
scenarios with failures, retries, checkpoints and hedged races, while
the event does two kernel events fewer per execution.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest

from repro.datacenter import (Cluster, Datacenter, Machine, MachineSpec,
                              Rack, homogeneous_cluster)
from repro.observability import Observer, science_view
from repro.resilience import HedgePolicy
from repro.scenario import ScenarioSpec
from repro.scheduling import ClusterScheduler
from repro.sim import Interrupt, Process, SimulationError, Simulator
from repro.workload import Task, TaskState

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


# ---------------------------------------------------------------------------
# The reference: ``Datacenter.execute`` as a generator process (verbatim)
# ---------------------------------------------------------------------------
def execute(self, task: Task, machine: Machine) -> Process:
    """Run ``task`` on ``machine`` as a simulation process.

    Capacity is claimed *synchronously* — by the time this method
    returns, the task holds its cores, so a scheduler's fit-check
    cannot be invalidated by a concurrent placement.  The process
    holds the allocation for the machine-speed-adjusted runtime
    (plus any input stage-in time, see :class:`DataStore`), then
    releases it.  If interrupted (failure or preemption) the task
    is marked failed and capacity released.  The returned process
    event succeeds with the task on normal completion.
    """
    machine.account_energy(self.sim.now)
    machine.allocate(task)
    # Stage-in is synchronous too: the inputs become resident the
    # instant placement commits, so later placements in the same
    # scheduling epoch already see them for locality scoring.
    transfer = (self.data.stage_in(task, machine)
                if task.input_files else 0.0)
    if self._epoch_depth:
        self._epoch_cores += task.cores
    else:
        self.used_cores.add(self.sim.now, task.cores)
    task.start(self.sim.now, machine.name)
    observer = self.sim.observer
    span = None
    if observer is not None:
        observer.metrics.counter("datacenter.executions_started").inc()
        if not self._epoch_depth:
            observer.metrics.gauge("datacenter.used_cores").set(
                float(self.capacity.used_cores_total()))
        span = observer.tracer.begin(
            "exec " + task.name, category="datacenter",
            parent=observer.tracer.active(("task", task.task_id)),
            attrs={"task": task.name, "machine": machine.name,
                   "cores": task.cores, "attempt": task.attempts})
    process = self.sim.process(self._execute(task, machine, span,
                                             transfer),
                               name=f"exec-{task.name}")
    self._running[task] = process
    return process


def _execute(self, task: Task, machine: Machine, span=None,
             transfer: float = 0.0):
    remaining_before = task.remaining_work
    service = machine.effective_runtime(task)
    if transfer:
        # Input stage-in extends the service interval; the guard
        # keeps file-less executions on the exact historical float
        # path (service + 0.0 is an op, skipping it is not).
        service += transfer
    started = self.sim.now
    try:
        yield self.sim.timeout(service)
    except Interrupt:
        machine.account_energy(self.sim.now)
        if task in machine.running_tasks:
            machine.release(task)
        self.used_cores.add(self.sim.now, -task.cores)
        # Progress scales with the fraction of the service time
        # served; checkpoints preserve the part up to the last
        # interval boundary, the rest is wasted work.
        work_done = 0.0
        if service > 0:
            work_done = remaining_before * (self.sim.now - started) / service
        preserved, lost = task.record_progress(work_done)
        self.preserved_core_seconds += preserved * task.cores
        self.wasted_core_seconds += lost * task.cores
        self.execution_losses.append((task, lost))
        task.fail(self.sim.now)
        self.failed_executions += 1
        self._running.pop(task, None)
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.counter(
                "datacenter.executions_interrupted").inc()
            observer.metrics.counter(
                "datacenter.wasted_core_seconds").inc(lost * task.cores)
            observer.metrics.gauge("datacenter.used_cores").set(
                float(self.capacity.used_cores_total()))
            if span is not None:
                observer.tracer.end(span,
                                    attrs={"outcome": "interrupted"})
        return None
    machine.account_energy(self.sim.now)
    machine.release(task)
    self.used_cores.add(self.sim.now, -task.cores)
    task.finish(self.sim.now)
    if task.output_files:
        self.data.publish(task, machine.name)
    self.completed_tasks.append(task)
    self._running.pop(task, None)
    observer = self.sim.observer
    if observer is not None:
        observer.metrics.counter("datacenter.executions_finished").inc()
        observer.metrics.gauge("datacenter.used_cores").set(
            float(self.capacity.used_cores_total()))
        if span is not None:
            observer.tracer.end(span, attrs={"outcome": "finished"})
    return task


def _use_reference(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(Datacenter, "execute", execute)
    patch.setattr(Datacenter, "_execute", _execute, raising=False)


@pytest.fixture(params=["event", "generator"])
def impl(request, monkeypatch):
    """Run a test on the execution event and on the reference."""
    if request.param == "generator":
        _use_reference(monkeypatch)
    return request.param


def _on_both(run):
    """``run()`` on the execution event, then on the reference."""
    fast = run()
    with pytest.MonkeyPatch.context() as patch:
        _use_reference(patch)
        reference = run()
    return fast, reference


def _with_tail_rounds(run):
    """``run()``, and how many scheduling rounds ran from a step's tail.

    Such a round (``_wake`` called with no event) spends no kernel
    event; a round delivered by its wake-up event spends one.
    """
    wake = ClusterScheduler._wake
    tail = 0

    def counted(self, event=None):
        nonlocal tail
        if event is None:
            tail += 1
        wake(self, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterScheduler, "_wake", counted)
        return run(), tail


def _task_rows(tasks):
    return [(t.name, t.state.value, t.start_time, t.finish_time, t.machine,
             t.attempts) for t in tasks]


def _first_difference(rows, reference):
    """The first task whose row differs from the reference's, or None."""
    for row, expected in zip(rows, reference):
        if row != expected:
            return f"task {row[0]}: {row} != reference {expected}"
    if len(rows) != len(reference):
        return f"{len(rows)} task rows != reference {len(reference)}"
    return None


def _executions(snapshot) -> int:
    return int(snapshot["metrics"]["counters"]
               ["datacenter.executions_started"])


# ---------------------------------------------------------------------------
# Scenario specs: the whole ScenarioSpec path
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["chaos_baseline.json", "chaos_slo.json"])
def test_spec_runs_match_the_reference(name):
    spec = ScenarioSpec.from_json((SPECS / name).read_text())
    spec = dataclasses.replace(spec, observer=True)

    def run():
        runtime = spec.build()
        trace: list[float] = []
        runtime.drive(trace=trace)
        runtime.finalize()
        result = runtime.result()
        assert runtime.sim.events_processed == len(trace)
        return (runtime.sim.events_processed, result.science_digest(),
                _task_rows(runtime.tasks), result.profile)

    fast, reference = _on_both(run)
    events, science, rows, profile = fast
    assert profile["profile"]["datacenter"]["events"] > 0
    assert any(row[1] == "failed" or row[5] > 1 for row in rows), \
        "the spec must interrupt executions"
    assert _first_difference(rows, reference[2]) is None
    assert profile["metrics"] == reference[3]["metrics"]
    assert science == reference[1]
    # Two events fewer per execution (no start event, no end event),
    # and all of them the datacenter's.
    saved = 2 * _executions(profile)
    assert events == reference[0] - saved
    assert (profile["profile"]["datacenter"]["events"]
            == reference[3]["profile"]["datacenter"]["events"] - saved)


# ---------------------------------------------------------------------------
# Hedged races (the set-ups of tests/resilience/test_hedging.py)
# ---------------------------------------------------------------------------
def _straggler_run(delay_factor: float, kill_slow_at: float | None):
    """A 10 s task on a slow (0.1x) machine listed before a fast one."""
    sim = Simulator()
    observer = Observer()
    observer.attach(sim)
    slow = Machine("slow", MachineSpec(cores=4, speed=0.1))
    fast = Machine("fast", MachineSpec(cores=4, speed=1.0))
    dc = Datacenter(sim, [Cluster("c", [Rack("r0", [slow, fast])])])
    scheduler = ClusterScheduler(
        sim, dc, hedge_policy=HedgePolicy(delay_factor=delay_factor))
    task = Task(runtime=10.0, cores=4, name="primary")
    scheduler.submit(task)
    if kill_slow_at is not None:
        def kill_slow():
            yield sim.timeout(kill_slow_at)
            dc.fail_machine(slow)
        sim.process(kill_slow())
    sim.advance_until(math.inf)
    executed = [task, *(t for t, _ in dc.execution_losses),
                *dc.completed_tasks]
    return (sim.events_processed, _task_rows(executed),
            (scheduler.hedges_launched, scheduler.hedge_wins,
             scheduler.hedge_rescues, dc.failed_executions,
             dc.wasted_core_seconds, len(scheduler.completed)),
            observer.snapshot())


@pytest.mark.parametrize("delay_factor, kill_slow_at, wins, rescues", [
    # The backup wins at t=30; the running primary is interrupted.
    (0.2, None, 1, 0),
    # The primary wins at t=100; the running backup is cancelled.
    (0.95, None, 0, 0),
    # The slow machine dies at t=25; the backup rescues the primary.
    (0.2, 25.0, 0, 1),
])
def test_hedged_races_match_the_reference(delay_factor, kill_slow_at, wins,
                                          rescues):
    (fast, fast_tail), (reference, ref_tail) = _on_both(
        lambda: _with_tail_rounds(
            lambda: _straggler_run(delay_factor, kill_slow_at)))
    events, rows, counters, snapshot = fast
    launched, won, rescued, interrupted, _, completed = counters
    assert (launched, won, rescued, interrupted, completed) == \
        (1, wins, rescues, 1, 1)
    assert _first_difference(rows, reference[1]) is None
    assert counters == reference[2]
    assert science_view(snapshot) == science_view(reference[3])
    profile, expected = snapshot["profile"], reference[3]["profile"]
    saved = 2 * _executions(snapshot)
    assert (profile["datacenter"]["events"]
            == expected["datacenter"]["events"] - saved)
    # Where the race is decided while the losing copy still runs, its
    # cancelling interrupt now reports the loser before the round the
    # winner's completion asked for has run, so that report's poke
    # joins the pending round: one round fewer.  Each side counts its
    # rounds run from a step's tail, which spend no event.
    merged = 1 if kill_slow_at is None else 0
    assert (profile["scheduling"]["events"] + fast_tail
            == expected["scheduling"]["events"] + ref_tail - merged)
    assert events + fast_tail == reference[0] + ref_tail - saved - merged


# ---------------------------------------------------------------------------
# Direct cases, on both implementations
# ---------------------------------------------------------------------------
def _one_machine():
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster("c", 1, MachineSpec(cores=4))])
    return sim, dc, dc.machines()[0]


def test_two_interrupts_before_delivery_fail_the_task_once(impl):
    sim, dc, machine = _one_machine()
    task = Task(runtime=10.0, cores=2)
    execution = dc.execute(task, machine)
    sim.run(until=4.0)
    execution.interrupt("first")
    execution.interrupt("second")
    assert execution.is_alive
    trace: list[float] = []
    sim.advance_until(math.inf, before_step=trace.append)
    # Left are both interrupts at 4 (the first ends the execution in
    # place), then the stale service timeout at 10.  The reference also
    # delivers its end event at 4, and its start event fired at 0.
    assert trace == {"event": [4.0, 4.0, 10.0],
                     "generator": [4.0, 4.0, 4.0, 10.0]}[impl]
    assert not execution.is_alive
    assert execution.ok and execution.value is None
    assert task.state is TaskState.FAILED
    assert dc.failed_executions == 1
    assert [t for t, _ in dc.execution_losses] == [task]
    assert dc.wasted_core_seconds == pytest.approx(8.0)
    assert machine.cores_used == 0
    assert dc.used_cores.value == 0


def test_completion_callback_error_leaves_the_ending_step(impl):
    sim, dc, machine = _one_machine()
    task = Task(runtime=5.0, cores=1)
    execution = dc.execute(task, machine)

    def fail(_event):
        raise RuntimeError("callback failed")

    execution.add_callback(fail)
    delivered = 0
    with pytest.raises(RuntimeError, match="callback failed"):
        while True:
            sim.step()
            delivered += 1
    # The event raises from the step of its service timeout; the
    # reference delivered its start event and the timeout first, and
    # raised from its own end event.
    assert delivered == {"event": 0, "generator": 2}[impl]
    assert sim.now == 5.0
    assert task.state is TaskState.FINISHED


def test_interrupting_a_finished_execution_raises(impl):
    sim, dc, machine = _one_machine()
    task = Task(runtime=5.0, cores=1)
    execution = dc.execute(task, machine)
    assert sim.run(until=execution) is task
    assert not execution.is_alive
    with pytest.raises(SimulationError, match="already finished"):
        execution.interrupt()
    with pytest.raises(KeyError):
        dc.interrupt_task(task)
    assert task.state is TaskState.FINISHED
    assert dc.completed_tasks == [task]


def test_stale_timeout_after_an_interrupt_does_nothing(impl):
    sim, dc, machine = _one_machine()
    task = Task(runtime=10.0, cores=4)
    execution = dc.execute(task, machine)
    ends: list[float] = []
    execution.add_callback(lambda event: ends.append(sim.now))
    sim.run(until=3.0)
    dc.interrupt_task(task, cause="preempted")
    sim.run(until=6.0)
    assert ends == [3.0]
    assert task.state is TaskState.FAILED
    before = (sim.events_processed, dc.used_cores.value,
              dc.failed_executions, list(dc.completed_tasks))
    # Only the service timeout of the interrupted run is left.
    assert sim.peek() == 10.0
    sim.run()
    assert sim.now == 10.0
    assert sim.events_processed == before[0] + 1
    assert (dc.used_cores.value, dc.failed_executions,
            dc.completed_tasks) == before[1:]
    assert ends == [3.0]
    assert task.state is TaskState.FAILED
    assert machine.cores_used == 0
    assert dc.mean_utilization() == pytest.approx(0.3)
