"""The cluster scheduler: allocation half of the dual problem (C7).

A :class:`ClusterScheduler` owns a waiting queue, orders it with a
:class:`~repro.scheduling.policies.QueuePolicy`, places tasks with a
:class:`~repro.scheduling.policies.PlacementPolicy`, and optionally
applies EASY backfilling — the classic reservation-based optimization
of parallel-job scheduling.  Completion notifications drive both the
scheduling loop and external observers (workflow engines, autoscalers,
portfolio schedulers).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from bisect import insort

from ..datacenter.datacenter import Datacenter
from ..datacenter.machine import Machine
from ..sim import Event, Simulator, Timeout, TimeWeightedMonitor, summarize
from ..workload.task import Job, Task, TaskState
from .policies import (FCFS, FairShare, FirstFit, PlacementPolicy,
                       QueuePolicy, incremental_sort_key,
                       vectorized_placement)
from .taskqueue import TaskQueue

__all__ = ["ClusterScheduler"]

_UNBOUNDED = float("inf")


def _dominated(failed: list[tuple[int, float]], cores: int,
               memory: float) -> bool:
    """Whether ``(cores, memory)`` dominates a known-failed demand.

    Capacity can only shrink while ``failed`` is live (placements
    allocate; every release bumps the capacity index's
    ``release_epoch``, which discards the list), so a demand at least
    as large as a failed one in both dimensions cannot be placed and
    its probe is skipped.
    """
    for fcores, fmemory in failed:
        if cores >= fcores and memory >= fmemory:
            return True
    return False


class _HedgeRace:
    """Book-keeping for one primary/backup speculative pair."""

    __slots__ = ("primary", "backup", "resolved", "primary_failed",
                 "winner")

    def __init__(self, primary: Task, backup: Task) -> None:
        self.primary = primary
        self.backup = backup
        #: Set once the race outcome is decided; later loser events
        #: are swallowed instead of re-reported.
        self.resolved = False
        #: The primary genuinely failed (machine loss, not cancellation).
        self.primary_failed = False
        self.winner: Task | None = None


class _HedgeWatch:
    """The straggler timer of one attempt of a watched task.

    The callback owner of the attempt's one hedge :class:`Timeout`; its
    ``hedge-watch-<task>`` name lets profiles attribute the timeout to
    scheduling.  ``token`` is the attempt's ``_running`` value, so a
    watcher outliving its attempt (the task failed and was retried)
    does not act on the retry.
    """

    __slots__ = ("scheduler", "task", "token")

    def __init__(self, scheduler: "ClusterScheduler", task: Task,
                 token: tuple) -> None:
        self.scheduler = scheduler
        self.task = task
        self.token = token

    @property
    def name(self) -> str:
        return "hedge-watch-" + self.task.name

    def fire(self, _timeout: Event) -> None:
        self.scheduler._hedge_due(self.task, self.token)


class ClusterScheduler:
    """An online scheduler for one datacenter.

    Args:
        sim: The simulator.
        datacenter: Execution substrate.
        queue_policy: Service-order policy (default FCFS).
        placement_policy: Machine-selection policy (default first-fit).
        backfilling: Enable EASY backfilling: when the queue head does
            not fit, later tasks may run if they do not delay the
            head's earliest possible start (its *shadow time*).
        strict_head: Without backfilling, stop at the first task that
            does not fit (true FCFS blocking) instead of greedily
            skipping it.
        admission: Optional admission controller (duck-typed: one
            ``admit(task) -> bool`` method, e.g.
            :class:`~repro.resilience.shedding.LoadSheddingAdmission`).
            Rejected tasks are marked :attr:`~TaskState.SHED` and never
            queued — graceful degradation under overload (C17).
        hedge_policy: Optional
            :class:`~repro.resilience.hedging.HedgePolicy`.  Tasks that
            run past the policy's straggler threshold get a speculative
            backup copy; the first copy to finish wins and the loser is
            cancelled.
    """

    def __init__(self, sim: Simulator, datacenter: Datacenter,
                 queue_policy: QueuePolicy | None = None,
                 placement_policy: PlacementPolicy | None = None,
                 backfilling: bool = False,
                 strict_head: bool = False,
                 admission: Any = None,
                 hedge_policy: Any = None,
                 name: str = "scheduler") -> None:
        self.sim = sim
        self.name = name
        self.datacenter = datacenter
        self.queue_policy = queue_policy or FCFS()
        self.placement_policy = placement_policy or FirstFit()
        # Duck-typed binding hook: data-aware policies need the
        # datacenter's file-residency store to score locality.
        binder = getattr(self.placement_policy, "bind_datacenter", None)
        if binder is not None:
            binder(datacenter)
        self.backfilling = backfilling
        self.strict_head = strict_head
        self.admission = admission
        self.hedge_policy = hedge_policy

        self.queue = TaskQueue()
        #: Policy object the queue's sorted groups were keyed
        #: for; compared by identity each round so portfolio schedulers
        #: can swap ``queue_policy`` at runtime.
        self._order_source: QueuePolicy | None = None
        #: Placement policy the vectorized kernel was resolved for
        #: (identity-compared each round, like ``_order_source``).
        self._placement_source: PlacementPolicy | None = None
        #: ``None`` sends ``_select_machine`` down ``select()``.
        self._placement_kernel = None
        #: Largest free core count the queue walk may still place
        #: (``_fit_limit``); unbounded where the walk must reach the
        #: first blocked task, ``None`` until read after a placement.
        self._limit: float | None = _UNBOUNDED
        #: Demand shapes proven unplaceable, carried across rounds
        #: while the capacity index's ``release_epoch`` stands still
        #: (i.e. nothing was freed, so failure proofs stay valid).
        self._failed_demands: list[tuple[int, float]] = []
        self._failed_epoch = -1
        self.queue_length = TimeWeightedMonitor("queue_length",
                                                start_time=sim.now)
        #: Deferred-flush seam for ``queue_length``: enqueues mark the
        #: monitor dirty instead of updating it, and the wake that
        #: ``_poke()`` guarantees at the *same* sim timestamp flushes
        #: it, after :meth:`stop` too.  Same-timestamp updates
        #: contribute zero weighted time, so the flushed monitor is
        #: bit-identical to eager updates while skipping one update
        #: call per task.
        self._queue_dirty = False
        self.completed: list[Task] = []
        self.shed_tasks: list[Task] = []
        self.on_task_complete: list[Callable[[Task], None]] = []
        self._running: dict[Task, tuple[Machine, float]] = {}
        #: Sorted upcoming releases ``(finish, cores, seq, task, token)``
        #: kept incrementally for EASY reservations (only when
        #: ``backfilling`` is set; nothing else reads them); ``token``
        #: is the exact ``_running`` value tuple, so a stale entry is
        #: detected by an identity check instead of a rescan.
        self._releases: list[tuple] = []
        self._release_seq = 0
        self._release_dead = 0
        self._hedges: dict[Task, _HedgeRace] = {}
        self.hedges_launched = 0
        #: Backup finished first while the primary was still running.
        self.hedge_wins = 0
        #: Backup finished after the primary had already failed.
        self.hedge_rescues = 0
        #: A round is due: :meth:`_poke` asked the kernel for one and
        #: :meth:`_wake` has not run it yet.
        self._due = False
        self._stopped = False
        datacenter.on_capacity_change.append(self._poke)

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Enqueue one task for scheduling (subject to admission control)."""
        if task.state not in (TaskState.PENDING, TaskState.ELIGIBLE):
            raise ValueError(f"task {task.name} is {task.state.value}")
        observer = self.sim.observer
        if self.admission is not None and not self.admission.admit(task):
            task.state = TaskState.SHED
            self.shed_tasks.append(task)
            if observer is not None:
                observer.metrics.counter("scheduler.tasks_shed").inc()
                observer.tracer.instant("shed " + task.name,
                                        category="scheduling",
                                        attrs={"task": task.name})
            return
        if observer is not None:
            observer.metrics.counter("scheduler.tasks_submitted").inc()
            observer.tracer.begin(
                "task " + task.name, category="scheduling",
                key=("task", task.task_id),
                attrs={"task": task.name, "cores": task.cores,
                       "runtime": task.runtime})
        self._enqueue(task)

    def _enqueue(self, task: Task) -> None:
        """Queue a task, bypassing admission (internal resubmissions)."""
        self.queue.append(task)
        self._queue_dirty = True
        observer = self.sim.observer
        if observer is not None:
            # The gauge stays eager: streaming ticks may sample it
            # between this event and the round's flush.
            observer.metrics.gauge("scheduler.queue_length").set(
                float(len(self.queue)))
        self._poke()

    def submit_job(self, job: Job) -> None:
        """Enqueue all currently-eligible tasks of a job.

        Tasks with unfinished dependencies are *not* submitted; use a
        :class:`~repro.scheduling.workflow_engine.WorkflowEngine` to
        release DAG tasks as they become eligible.
        """
        if isinstance(self.queue_policy, FairShare):
            for task in job:
                self.queue_policy.register(task, job.user)
        for task in job:
            if task.is_eligible:
                self.submit(task)

    def stop(self) -> None:
        """Stop the scheduling loop (used when draining a simulation)."""
        self._stopped = True
        self._poke()

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def _poke(self) -> None:
        """Ask for a scheduling round at this instant.

        Pokes until the round runs fold into it.  The round runs in
        the FIFO place of a zero-delay event posted now
        (:meth:`Simulator.call_soon`): usually at the end of the step
        that poked, with no kernel event of its own.
        """
        if not self._due:
            self._due = True
            self.sim.call_soon(self._wake)

    def _wake(self, _event: Event | None = None) -> None:
        """Run the round a poke asked for.

        The owner of this call is the scheduler, so profiles attribute
        it by the scheduler's name (``scheduler`` by default:
        scheduling).  After :meth:`stop` it only flushes the queue
        length.  A poke during the round asks for a further round.
        """
        self._due = False
        if self._queue_dirty:
            # Flush the deferred queue-length seam.  _poke() guarantees
            # this runs at the same sim timestamp as the deferred
            # changes, so the flush is bit-identical to eager
            # per-change updates.
            self._queue_dirty = False
            self.queue_length.update(self.sim.now, len(self.queue))
        if self._stopped:
            return
        self._schedule_round()

    def _schedule_round(self) -> None:
        """One scheduling epoch: walk the queue only as far as work fits.

        The round batches everything batchable: queue ordering is one
        lazy walk over the queue's per-core-demand groups (or one
        ``order()`` call), the walk drops every group that needs more
        cores than the largest free slot, placement runs through a
        vectorized kernel over the capacity arrays when one exists for
        the policy, failed demands prune later dominated tasks
        (capacity only shrinks within a round), and datacenter
        bookkeeping is deferred to one flush at round end.
        """
        policy = self.queue_policy
        if policy is not self._order_source:
            # First round, or a portfolio scheduler swapped the policy:
            # (re)key the queue's sorted groups.
            self._order_source = policy
            self.queue.set_key(incremental_sort_key(policy))
        placement = self.placement_policy
        if placement is not self._placement_source:
            self._placement_source = placement
            self._placement_kernel = vectorized_placement(placement)
        capacity = self.datacenter.capacity
        # One topology check per round covers every kernel call and
        # fit-limit read inside it: topology can only change between
        # events, never inside a synchronous round.
        capacity.sync()
        epoch = capacity.release_epoch
        if epoch != self._failed_epoch:
            # Something was freed since the failures were proven (or
            # this is the first round): discard the carried set.
            self._failed_demands = []
            self._failed_epoch = epoch
        if self.queue.has_key:
            tasks = self.queue.walk(self._fit_limit)
        else:
            tasks = iter(policy.order(list(self.queue), self.sim.now))
        datacenter = self.datacenter
        datacenter.begin_epoch()
        try:
            if self.backfilling:
                self._schedule_easy(tasks)
            else:
                self._schedule_list(tasks)
        finally:
            datacenter.end_epoch()
        self._queue_dirty = False
        self.queue_length.update(self.sim.now, len(self.queue))
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.gauge("scheduler.queue_length").set(
                float(len(self.queue)))

    def _fit_limit(self) -> float:
        """Core demand above which the queue walk drops a group.

        A task needing more cores than the largest free slot cannot be
        placed by any policy, and skipping it changes nothing a probe
        would: a failed probe never moves the RoundRobin cursor, and
        its shape would join the failed antichain only to dominate
        tasks that are above the slot as well.  ``None`` marks the
        limit stale (a placement since the last read).
        """
        if self._limit is None:
            # The round's ``capacity.sync()`` ran the topology check.
            self._limit = self.datacenter.capacity.vectors.largest_free
        return self._limit

    def _select_machine(self, task: Task) -> Machine | None:
        """Placement via the vectorized kernel, else ``select()``."""
        kernel = self._placement_kernel
        if kernel is not None:
            return kernel(self.placement_policy, task,
                          self.datacenter.capacity)
        return self.placement_policy.select(
            task, self.datacenter.available_machines())

    @staticmethod
    def _note_failure(failed: list[tuple[int, float]], cores: int,
                      memory: float) -> None:
        """Record a failed demand, keeping ``failed`` an antichain."""
        if failed:
            failed[:] = [f for f in failed
                         if not (f[0] >= cores and f[1] >= memory)]
        failed.append((cores, memory))

    def _schedule_list(self, tasks: Iterator[Task]) -> None:
        # ``failed`` holds demand shapes proven unplaceable — earlier
        # in this round or carried from previous rounds with no release
        # in between.  Any task whose demand dominates a failed shape
        # cannot fit either and its placement probe is skipped — same
        # decisions, fewer scans.
        strict_head = self.strict_head
        failed = self._failed_demands
        # Under strict_head the first blocked task in service order
        # ends the round, so the walk must reach it: no fit limit.
        self._limit = _UNBOUNDED if strict_head else None
        for task in tasks:
            cores = task.cores
            memory = task.memory
            if failed and _dominated(failed, cores, memory):
                if strict_head:
                    return
                continue
            machine = self._select_machine(task)
            if machine is None:
                if strict_head:
                    return
                self._note_failure(failed, cores, memory)
                continue
            self._start(task, machine)
            if not strict_head:
                self._limit = None

    def _schedule_easy(self, tasks: Iterator[Task]) -> None:
        """EASY backfilling: greedy + reservation for the blocked head."""
        # Phase 1: place from the front until the head is blocked.  The
        # walk is unbounded here, so the head is the first blocked task
        # in service order.  A head whose demand dominates a carried
        # failed shape is known blocked without a probe.
        failed = self._failed_demands
        self._limit = _UNBOUNDED
        head = None
        for task in tasks:
            if failed and _dominated(failed, task.cores, task.memory):
                head = task
                break
            machine = self._select_machine(task)
            if machine is None:
                self._note_failure(failed, task.cores, task.memory)
                head = task
                break
            self._start(task, machine)
        if head is None:
            return
        shadow_time, spare_cores = self._reservation_for(head)
        # Phase 2: backfill tasks that cannot delay the reservation,
        # continuing the same walk, now bounded by the largest free
        # slot.  The blocked head's demand is already in the failed
        # set, so the reservation pass and the placement pass share one
        # view of what is provably unplaceable.
        self._limit = None
        now = self.sim.now
        shadow_cut = shadow_time + 1e-9
        for task in tasks:
            finishes_before_shadow = now + task.runtime <= shadow_cut
            fits_spare = task.cores <= spare_cores
            if not (finishes_before_shadow or fits_spare):
                continue
            cores = task.cores
            memory = task.memory
            if _dominated(failed, cores, memory):
                continue
            machine = self._select_machine(task)
            if machine is None:
                self._note_failure(failed, cores, memory)
                continue
            if not finishes_before_shadow:
                spare_cores -= task.cores
            self._start(task, machine)
            self._limit = None

    def _reservation_for(self, head: Task) -> tuple[float, int]:
        """Shadow time and spare cores of the head's future reservation.

        The shadow time is when enough cores free up (assuming running
        tasks finish on estimate) for the head to start; spare cores are
        what remains free at that moment beyond the head's demand.
        Upcoming releases come from the incrementally-sorted
        ``_releases`` list rather than a sort of ``_running`` per call.
        Tasks mostly finish in release order, so the entries of
        finished tasks pile up at the front; they are deleted before
        the walk instead of being skipped by every later reservation.
        """
        running = self._running
        releases = self._releases
        dead = 0
        for entry in releases:
            if running.get(entry[3]) is entry[4]:
                break
            dead += 1
        if dead:
            del releases[:dead]
            self._release_dead -= dead
        available = self.datacenter.capacity.free_cores_total()
        shadow_time = self.sim.now
        head_cores = head.cores
        for finish_time, cores, _seq, task, token in releases:
            if running.get(task) is not token:
                continue
            if available >= head_cores:
                break
            available += cores
            shadow_time = finish_time
        spare = max(0, available - head_cores)
        return shadow_time, spare

    def _start(self, task: Task, machine: Machine) -> None:
        self.queue.remove(task)
        token = (machine, self.sim.now)
        self._running[task] = token
        if self.backfilling:
            insort(self._releases,
                   (self.sim.now + machine.effective_runtime(task),
                    task.cores, self._release_seq, task, token))
            self._release_seq += 1
        execution = self.datacenter.execute(task, machine)
        execution.add_callback(
            lambda event, t=task: self._on_finished(t, event))
        if (self.hedge_policy is not None and not task.speculative
                and task not in self._hedges
                and self.hedge_policy.should_consider(task.runtime)):
            expected = machine.effective_runtime(task)
            delay = self.hedge_policy.hedge_delay(expected)
            Timeout(self.sim, delay).add_callback(
                _HedgeWatch(self, task, token).fire)

    def _hedge_due(self, task: Task, token: tuple) -> None:
        """Launch a speculative backup if the attempt that started as
        ``token`` is still running."""
        if (self._running.get(task) is not token or task in self._hedges
                or task.state is not TaskState.RUNNING):
            return
        backup = task.clone_for_speculation()
        race = _HedgeRace(task, backup)
        self._hedges[task] = race
        self._hedges[backup] = race
        self.hedges_launched += 1
        observer = self.sim.observer
        if observer is not None:
            observer.metrics.counter("scheduler.hedges_launched").inc()
            observer.tracer.instant(
                "hedge " + task.name, category="scheduling",
                parent=observer.tracer.active(("task", task.task_id)),
                attrs={"task": task.name, "backup": backup.name})
        self._enqueue(backup)

    def _on_finished(self, task: Task, event) -> None:
        if self._running.pop(task, None) is not None and self.backfilling:
            self._release_dead += 1
            if self._release_dead > 64 and \
                    self._release_dead > len(self._running):
                running = self._running
                self._releases = [e for e in self._releases
                                  if running.get(e[3]) is e[4]]
                self._release_dead = 0
        race = self._hedges.get(task)
        if race is not None:
            self._resolve_hedge(task, race)
            self._poke()
            return
        self._report_complete(task)
        self._poke()

    def _report_complete(self, task: Task) -> None:
        """Surface one terminal outcome (FINISHED or FAILED) to observers."""
        finished = task.state is TaskState.FINISHED
        if finished:
            self.completed.append(task)
            if isinstance(self.queue_policy, FairShare):
                self.queue_policy.charge(task)
        observer = self.sim.observer
        if observer is not None:
            metrics = observer.metrics
            if finished:
                metrics.counter("scheduler.tasks_completed").inc()
                metrics.histogram("scheduler.wait_time").observe(
                    task.start_time - task.submit_time)
                metrics.histogram("scheduler.response_time").observe(
                    task.finish_time - task.submit_time)
            else:
                metrics.counter("scheduler.tasks_failed").inc()
            observer.tracer.end_key(("task", task.task_id),
                                    attrs={"outcome": task.state.value})
        # Copy first: callbacks may (un)register observers reentrantly.
        for callback in tuple(self.on_task_complete):
            callback(task)

    # ------------------------------------------------------------------
    # Hedged execution (C17: tolerate stragglers and machine loss)
    # ------------------------------------------------------------------
    def _resolve_hedge(self, task: Task, race: _HedgeRace) -> None:
        """Advance the primary/backup race on one completion event.

        Exactly one outcome is ever reported to observers, always under
        the *primary* task's identity.  Losing copies are cancelled and
        their (later) failure events swallowed here.
        """
        primary, backup = race.primary, race.backup
        if race.resolved:
            # A loser event arriving after the race was decided.
            self._hedges.pop(task, None)
            if task is primary:
                # The backup won earlier; the primary's cancellation
                # just landed — adopt the winner's result and report.
                if task.state is not TaskState.FINISHED:
                    task.complete_from(backup)
                self._report_complete(task)
            return
        if task.state is TaskState.FINISHED:
            race.resolved = True
            race.winner = task
            self._hedges.pop(task, None)
            if task is primary:
                self._cancel_hedge_copy(backup)
                self._report_complete(task)
                return
            # The backup won the race.
            if race.primary_failed:
                # The primary already died for real: a rescue.
                self.hedge_rescues += 1
                if self.sim.observer is not None:
                    self.sim.observer.metrics.counter(
                        "scheduler.hedge_rescues").inc()
                primary.complete_from(backup)
                self._report_complete(primary)
                return
            # The primary is still running: cancel it; its failure
            # event (handled in the resolved-branch above) adopts the
            # backup's result and reports.
            self.hedge_wins += 1
            if self.sim.observer is not None:
                self.sim.observer.metrics.counter(
                    "scheduler.hedge_wins").inc()
            self._cancel_hedge_copy(primary)
            return
        # A genuine failure (machine loss) of one copy.
        self._hedges.pop(task, None)
        if task is backup:
            if race.primary_failed:
                # Both copies are gone: report the primary's failure.
                race.resolved = True
                self._report_complete(primary)
            # Otherwise the primary is still in flight; let it run on.
            return
        race.primary_failed = True
        if backup not in self.queue and backup not in self._running:
            # The backup is gone too (already failed and swallowed).
            race.resolved = True
            self._report_complete(primary)
        # Otherwise the queued/running backup becomes the recovery path.

    def _cancel_hedge_copy(self, loser: Task) -> None:
        """Withdraw the losing copy of a decided hedge race."""
        if loser in self.queue:
            self.queue.remove(loser)
            # The completion event that resolved this race pokes the
            # loop; the same-timestamp wake flushes the seam.
            self._queue_dirty = True
            self._hedges.pop(loser, None)
        elif loser in self._running:
            self.datacenter.interrupt_task(loser)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def running_count(self) -> int:
        """Tasks currently executing."""
        return len(self._running)

    def statistics(self) -> dict[str, float]:
        """Wait-time / slowdown / response summaries over completed tasks.

        This is the legacy post-hoc view, kept stable because the
        determinism goldens pin its exact values.  When an
        :class:`~repro.observability.observer.Observer` is attached,
        the same signals stream live into its
        :class:`~repro.observability.metrics.MetricsRegistry` under the
        ``scheduler.*`` names (counters, queue-length gauge, wait- and
        response-time histograms) — prefer that for in-flight
        monitoring and cross-subsystem dashboards.
        """
        if self._queue_dirty:
            # A reader inside the deferred window sees the flushed
            # value; the pending round would flush identically.
            self._queue_dirty = False
            self.queue_length.update(self.sim.now, len(self.queue))
        waits: list[float] = []
        slowdowns: list[float] = []
        responses: list[float] = []
        for t in self.completed:
            # One pass over completed: each task's timestamps are read
            # once, and the response value feeds the slowdown directly.
            submit = t.submit_time
            waits.append(t.start_time - submit)
            response = t.finish_time - submit
            responses.append(response)
            slowdowns.append(response / max(t.runtime, 1e-9))
        stats = {"completed": float(len(self.completed))}
        for prefix, values in (("wait", waits), ("slowdown", slowdowns),
                               ("response", responses)):
            summary = summarize(values)
            stats[f"{prefix}_mean"] = summary["mean"]
            stats[f"{prefix}_p95"] = summary["p95"]
            stats[f"{prefix}_max"] = summary["max"]
        stats["mean_queue_length"] = self.queue_length.time_average(
            until=self.sim.now)
        return stats

    def makespan(self) -> float:
        """Finish time of the last completed task."""
        if not self.completed:
            raise RuntimeError(
                f"scheduler {self.name!r} "
                f"({self.queue_policy.name}/{self.placement_policy.name}) "
                "has no completed tasks")
        return max(t.finish_time for t in self.completed)
