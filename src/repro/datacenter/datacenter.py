"""The datacenter: clusters plus a task-execution engine.

A :class:`Datacenter` binds a physical topology (clusters of racks of
machines) to a simulator and executes tasks on machines as simulation
processes.  It is the "digital factory" of §6.1 — schedulers
(:mod:`repro.scheduling`) decide *where* work runs; the datacenter
carries it out, accounts energy, and reacts to machine failures.
"""

from __future__ import annotations

from typing import Sequence

from ..core.entity import CollectiveFunction, Ecosystem, System
from ..sim import Interrupt, Process, Simulator, TimeWeightedMonitor
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
        self._running: dict[Task, Process] = {}
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

    def interrupt_task(self, task: Task, cause: str = "preempted") -> None:
        """Interrupt a running execution (failure injection, preemption)."""
        process = self._running.get(task)
        if process is None:
            raise KeyError(f"task {task.name} is not running here")
        process.interrupt(cause)

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
