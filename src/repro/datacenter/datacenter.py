"""The datacenter: clusters plus a task-execution engine.

A :class:`Datacenter` binds a physical topology (clusters of racks of
machines) to a simulator and executes tasks on machines as simulation
events.  It is the "digital factory" of §6.1 — schedulers
(:mod:`repro.scheduling`) decide *where* work runs; the datacenter
carries it out, accounts energy, and reacts to machine failures.
"""

from __future__ import annotations

from typing import Sequence

from ..core.entity import CollectiveFunction, Ecosystem, System
from ..sim import (Event, SimulationError, Simulator, Timeout,
                   TimeWeightedMonitor)
from ..workload.task import Task
from .capacity import CapacityIndex
from .cluster import Cluster
from .datastore import DataStore
from .machine import Machine

__all__ = ["Datacenter"]


class Datacenter:
    """Executes tasks on the machines of one or more clusters."""

    def __init__(self, sim: Simulator, clusters: Sequence[Cluster],
                 name: str = "dc", operator: str = "operator") -> None:
        if not clusters:
            raise ValueError("a datacenter needs at least one cluster")
        self.sim = sim
        self.name = name
        self.operator = operator
        self.clusters: list[Cluster] = list(clusters)
        #: Incremental capacity aggregates; schedulers use it to probe
        #: fitting machines without rescanning the topology.
        self.capacity = CapacityIndex(self.clusters)
        #: File residency + transfer accounting for data-aware
        #: scheduling; inert (no counters, no timing changes) for
        #: workloads that declare no input/output files.
        self.data = DataStore()
        self.used_cores = TimeWeightedMonitor(f"{name}.used_cores",
                                              start_time=sim.now)
        self.completed_tasks: list[Task] = []
        self.failed_executions = 0
        #: Core-seconds of work destroyed by interrupted executions
        #: (work since the victim's last checkpoint).
        self.wasted_core_seconds = 0.0
        #: Core-seconds preserved by checkpoints across interruptions.
        self.preserved_core_seconds = 0.0
        #: Per-interruption (task, lost_work) log, in task-runtime
        #: seconds — the chaos harness checks checkpoint invariants here.
        self.execution_losses: list[tuple[Task, float]] = []
        self._running: dict[Task, _Execution] = {}
        #: Deferred-flush seam for scheduling epochs: while a scheduler
        #: round is open (``begin_epoch``), per-execution ``used_cores``
        #: monitor adds and gauge sets are accumulated here and flushed
        #: once at ``end_epoch``.  A round is synchronous — no other
        #: event can observe the monitor mid-round — and same-timestamp
        #: updates carry zero weighted time, so one merged add is
        #: bit-identical to the per-execution adds it replaces.
        self._epoch_depth = 0
        self._epoch_cores = 0
        #: Called whenever capacity reappears (machine repair); cluster
        #: schedulers subscribe their wake-up here.
        self.on_capacity_change: list = []

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def machines(self) -> list[Machine]:
        """All machines across all clusters (cached topology order)."""
        return list(self.capacity.machines())

    def available_machines(self) -> list[Machine]:
        """Machines that are up (cached between availability changes)."""
        return list(self.capacity.available_machines())

    @property
    def total_cores(self) -> int:
        """Total installed cores."""
        return self.capacity.total_cores()

    def utilization(self) -> float:
        """Instantaneous aggregate core utilization in [0, 1]."""
        total = self.capacity.total_cores()
        if total == 0:
            return 0.0
        return self.capacity.used_cores_total() / total

    def mean_utilization(self) -> float:
        """Time-weighted mean utilization since the simulation start."""
        total = self.total_cores
        if total == 0:
            return 0.0
        return self.used_cores.time_average(until=self.sim.now) / total

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, task: Task, machine: Machine) -> _Execution:
        """Run ``task`` on ``machine``; returns the execution event.

        Capacity is claimed *synchronously* — by the time this method
        returns, the task holds its cores, so a scheduler's fit-check
        cannot be invalidated by a concurrent placement.  The execution
        holds the allocation for the machine-speed-adjusted runtime
        (plus any input stage-in time, see :class:`DataStore`), then
        releases it.  If interrupted (failure or preemption) the task
        is marked failed and capacity released.  The returned event
        succeeds with the task on normal completion and with ``None``
        after an interruption; it can be yielded by a process, awaited
        with ``sim.run(until=...)``, and interrupted like a process.

        An exception raised by the completion bookkeeping propagates
        from ``Simulator.step()`` when the service timeout fires, not
        one event later as from the generator process this replaced.
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
        execution = _Execution(self, task, machine, span, transfer)
        self._running[task] = execution
        return execution

    def begin_epoch(self) -> None:
        """Open a deferred-flush epoch (one scheduler round)."""
        self._epoch_depth += 1

    def end_epoch(self) -> None:
        """Close an epoch, flushing the batched bookkeeping once."""
        self._epoch_depth -= 1
        if self._epoch_depth:
            return
        cores = self._epoch_cores
        if cores:
            self._epoch_cores = 0
            self.used_cores.add(self.sim.now, cores)
            observer = self.sim.observer
            if observer is not None:
                observer.metrics.gauge("datacenter.used_cores").set(
                    float(self.capacity.used_cores_total()))

    def interrupt_task(self, task: Task, cause: str = "preempted") -> None:
        """Interrupt a running execution (failure injection, preemption)."""
        execution = self._running.get(task)
        if execution is None:
            raise KeyError(f"task {task.name} is not running here")
        execution.interrupt(cause)

    def fail_machine(self, machine: Machine) -> list[Task]:
        """Bring a machine down, interrupting everything on it (S8)."""
        victims = machine.running_tasks
        machine.account_energy(self.sim.now)
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.counter("datacenter.machine_failures").inc()
            observer.tracer.instant(
                "machine-failure " + machine.name, category="resilience",
                attrs={"machine": machine.name, "victims": len(victims)})
        for task in victims:
            self.interrupt_task(task, cause=f"machine-failure:{machine.name}")
        machine.available = False
        return victims

    def repair_machine(self, machine: Machine) -> None:
        """Bring a failed machine back into service."""
        machine.account_energy(self.sim.now)
        machine.repair()
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.counter("datacenter.machine_repairs").inc()
            observer.tracer.instant(
                "machine-repair " + machine.name, category="resilience",
                attrs={"machine": machine.name})
        # Copy first: callbacks may (un)register observers reentrantly.
        for callback in tuple(self.on_capacity_change):
            callback()

    def scale_to(self, target: int) -> int:
        """Repair or release machines until ``target`` of them are up.

        The elastic lease of autoscalers and provisioners.  Below the
        target, down machines are repaired in topology order (each
        repair wakes the schedulers on :attr:`on_capacity_change`);
        above it, idle machines are released from the end of topology
        order (busy ones stay up, so the lease may stay above the
        target).  ``target`` is clamped to the fleet.  Returns the
        number of machines up afterwards, counted, not rescanned.
        """
        capacity = self.capacity
        machines = capacity.machines()
        target = max(0, min(target, len(machines)))
        up = capacity.available_count()
        if up < target:
            for machine in machines:
                if not machine.available:
                    self.repair_machine(machine)
                    up += 1
                    if up >= target:
                        break
        elif up > target:
            now = self.sim.now
            for machine in reversed(machines):
                if up <= target:
                    break
                if machine.available and not machine.running_tasks:
                    machine.account_energy(now)
                    machine.available = False
                    up -= 1
        return up

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_energy_joules(self) -> float:
        """Energy consumed by all machines up to the current sim time."""
        now = self.sim.now
        total = 0.0
        for machine in self.capacity.machines():
            machine.account_energy(now)
            total += machine.energy_joules
        return total

    # ------------------------------------------------------------------
    # Ecosystem view (§2.1)
    # ------------------------------------------------------------------
    def as_ecosystem(self) -> Ecosystem:
        """Expose the datacenter as a paper-§2.1 ecosystem.

        Clusters become sub-ecosystems of machine systems; the
        collective function is serving the customer workload, which
        requires most machines to collaborate.
        """
        eco = Ecosystem(self.name, function="datacenter services",
                        owner=self.operator)
        for cluster in self.clusters:
            sub = Ecosystem(cluster.name, function="scheduling domain",
                            owner=self.operator)
            for machine in cluster.machines():
                sub.add(System(machine.name, function="task execution",
                               owner=self.operator,
                               kind=machine.spec.kind.value))
            eco.add(sub)
        eco.register_collective_function(
            CollectiveFunction("serve-customer-workload",
                               required_fraction=0.8))
        return eco


class _Execution(Event):
    """One task's run on one machine: an event that fires when it ends.

    :meth:`Datacenter.execute` creates it.  It posts three events: a
    start event at creation, the service :class:`~repro.sim.Timeout`
    when the start event fires, and itself when the run ends, carrying
    the task (``None`` when interrupted).  These are the events, times
    and order of the generator process it replaced, and its callbacks
    are bound methods of an object named ``exec-<task>``, so profiles
    attribute them as before.

    :meth:`interrupt` and :attr:`is_alive` behave as on
    :class:`~repro.sim.Process`: interrupting an ended execution is an
    error, and two interrupts before delivery fail the task once.  An
    interrupted run's service timeout stays queued; it is delivered
    and does nothing.

    One difference from the process: an exception raised by the
    completion bookkeeping propagates from ``Simulator.step()`` at the
    service timeout, where the process failed its own event and the
    exception surfaced one event later.
    """

    __slots__ = ("name", "_datacenter", "_task", "_machine", "_span",
                 "_transfer", "_started", "_service", "_remaining")

    def __init__(self, datacenter: Datacenter, task: Task, machine: Machine,
                 span: object, transfer: float) -> None:
        super().__init__(datacenter.sim)
        self.name = f"exec-{task.name}"
        self._datacenter = datacenter
        self._task = task
        self._machine = machine
        self._span = span
        self._transfer = transfer
        start = Event(datacenter.sim)
        start.add_callback(self._begin)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the execution has not yet ended."""
        return self._ok is None

    def interrupt(self, cause: object = None) -> None:
        """Fail the run when an interrupt event posted now is delivered.

        Raises :class:`~repro.sim.SimulationError` once the execution
        has ended.
        """
        if self._ok is not None:
            raise SimulationError(f"{self.name} has already finished")
        event = Event(self.sim)
        event.add_callback(self._abort)
        event.succeed(cause)

    def _begin(self, _event: Event) -> None:
        task = self._task
        self._remaining = task.remaining_work
        service = self._machine.effective_runtime(task)
        if self._transfer:
            # Input stage-in extends the service interval; the guard
            # keeps file-less executions on the exact historical float
            # path (service + 0.0 is an op, skipping it is not).
            service += self._transfer
        self._service = service
        self._started = self.sim.now
        Timeout(self.sim, service).add_callback(self._finish)

    def _finish(self, _timeout: Event) -> None:
        if self._ok is not None:
            return  # interrupted: the stale timeout does nothing
        dc = self._datacenter
        task = self._task
        machine = self._machine
        now = self.sim.now
        machine.account_energy(now)
        machine.release(task)
        dc.used_cores.add(now, -task.cores)
        task.finish(now)
        if task.output_files:
            dc.data.publish(task, machine.name)
        dc.completed_tasks.append(task)
        dc._running.pop(task, None)
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.counter("datacenter.executions_finished").inc()
            observer.metrics.gauge("datacenter.used_cores").set(
                float(dc.capacity.used_cores_total()))
            if self._span is not None:
                observer.tracer.end(self._span,
                                    attrs={"outcome": "finished"})
        self.succeed(task)

    def _abort(self, _event: Event) -> None:
        if self._ok is not None:
            return  # a second interrupt, or the run ended first
        dc = self._datacenter
        task = self._task
        machine = self._machine
        now = self.sim.now
        machine.account_energy(now)
        if task in machine.running_tasks:
            machine.release(task)
        dc.used_cores.add(now, -task.cores)
        # Progress scales with the fraction of the service time
        # served; checkpoints preserve the part up to the last
        # interval boundary, the rest is wasted work.
        work_done = 0.0
        service = self._service
        if service > 0:
            work_done = self._remaining * (now - self._started) / service
        preserved, lost = task.record_progress(work_done)
        dc.preserved_core_seconds += preserved * task.cores
        dc.wasted_core_seconds += lost * task.cores
        dc.execution_losses.append((task, lost))
        task.fail(now)
        dc.failed_executions += 1
        dc._running.pop(task, None)
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.counter(
                "datacenter.executions_interrupted").inc()
            observer.metrics.counter(
                "datacenter.wasted_core_seconds").inc(lost * task.cores)
            observer.metrics.gauge("datacenter.used_cores").set(
                float(dc.capacity.used_cores_total()))
            if self._span is not None:
                observer.tracer.end(self._span,
                                    attrs={"outcome": "interrupted"})
        self.succeed(None)
