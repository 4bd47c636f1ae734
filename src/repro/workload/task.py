"""Tasks, jobs, and bags-of-tasks — the paper's core workload models.

The paper (§3.5) lists "core workload models such as workflows and
dataflows" as imports from Computer Systems; grids and clouds run
bags-of-tasks and workflows ([39], [107], [114]).  A :class:`Task` is
the unit of allocation; a :class:`Job` groups tasks submitted together;
a :class:`BagOfTasks` is a job of independent tasks.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = ["TaskState", "Task", "Job", "BagOfTasks"]

_task_ids = itertools.count(1)


class TaskState(enum.Enum):
    """Lifecycle of a task inside the simulator."""

    PENDING = "pending"
    ELIGIBLE = "eligible"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    SHED = "shed"


@dataclass(eq=False)
class Task:
    """One schedulable unit of work.

    A task is an entity, not a value: it compares and hashes by
    identity, so ``==`` and ``hash()`` run no Python frame when the
    schedulers and the datacenter key their bookkeeping on it.  A copy
    (``dataclasses.replace``) is a different task even with the same
    ``task_id`` and fields.

    Attributes:
        runtime: Service demand in seconds on one dedicated core-set.
        cores: Number of cores needed simultaneously (rigid allocation).
        memory: Memory footprint in GiB.
        submit_time: Time the task entered the system.
        dependencies: Tasks that must finish before this one is eligible.
        kind: Application class, used by vicissitude mixes and
            heterogeneity-aware policies (C4).
        deadline: Optional absolute completion deadline (banking, C3).
        priority: Admission priority; load shedding drops low values
            first (graceful degradation, C17).
        checkpoint_interval: Work between checkpoints, in task-runtime
            seconds; ``None`` disables checkpointing.
        checkpoint_overhead: Extra service time per checkpoint written.
        input_files: Files the task reads, as ``{name: size_in_bytes}``.
            Inputs not resident on the placement machine are staged in
            over its link before execution (data-aware scheduling, C7).
        output_files: Files the task writes, as ``{name: size_in_bytes}``;
            published to the executing machine's data store on success.
    """

    runtime: float
    cores: int = 1
    memory: float = 1.0
    submit_time: float = 0.0
    name: str = ""
    kind: str = "generic"
    deadline: Optional[float] = None
    priority: int = 0
    checkpoint_interval: Optional[float] = None
    checkpoint_overhead: float = 0.0
    dependencies: list["Task"] = field(default_factory=list)
    input_files: dict[str, float] = field(default_factory=dict)
    output_files: dict[str, float] = field(default_factory=dict)
    task_id: int = field(default_factory=lambda: next(_task_ids))

    state: TaskState = TaskState.PENDING
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    machine: Optional[str] = None
    #: Work preserved at the last checkpoint; a restart resumes here.
    checkpointed_work: float = 0.0
    #: Execution attempts started (retries and hedges each count one).
    attempts: int = 0
    #: Set by load shedding when the task was admitted degraded.
    degraded: bool = False
    #: Marks speculative (hedge) clones so observers can tell them apart.
    speculative: bool = False

    def __post_init__(self) -> None:
        if self.runtime < 0:
            raise ValueError(f"runtime must be non-negative, got {self.runtime}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.memory < 0:
            raise ValueError(f"memory must be non-negative, got {self.memory}")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {self.checkpoint_interval}")
        if self.checkpoint_overhead < 0:
            raise ValueError(
                f"checkpoint_overhead must be non-negative, got {self.checkpoint_overhead}")
        if self.input_files or self.output_files:
            for file_name, size in (*self.input_files.items(),
                                    *self.output_files.items()):
                if size < 0:
                    raise ValueError(
                        f"file {file_name!r} has negative size {size}")
        if not self.name:
            self.name = f"task-{self.task_id}"

    @property
    def input_bytes(self) -> float:
        """Total bytes of declared input files."""
        return sum(self.input_files.values())

    @property
    def output_bytes(self) -> float:
        """Total bytes of declared output files."""
        return sum(self.output_files.values())

    # ------------------------------------------------------------------
    # Dependency handling
    # ------------------------------------------------------------------
    def add_dependency(self, task: "Task") -> None:
        """Require ``task`` to finish before this one may start."""
        if task is self:
            raise ValueError("a task cannot depend on itself")
        self.dependencies.append(task)

    @property
    def is_eligible(self) -> bool:
        """Whether all dependencies have finished."""
        return all(dep.state is TaskState.FINISHED for dep in self.dependencies)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def start(self, time: float, machine: str = "") -> None:
        """Mark the task running at ``time`` on ``machine``."""
        if self.state is TaskState.RUNNING:
            raise RuntimeError(f"{self.name} is already running")
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"{self.name} has already finished")
        self.state = TaskState.RUNNING
        self.start_time = time
        self.machine = machine or None
        self.attempts += 1

    def finish(self, time: float) -> None:
        """Mark the task finished at ``time``."""
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"{self.name} is not running")
        self.state = TaskState.FINISHED
        self.finish_time = time

    def fail(self, time: float) -> None:
        """Mark the task failed at ``time``; it may later restart."""
        self.state = TaskState.FAILED
        self.finish_time = time

    def reset_for_retry(self) -> None:
        """Return a failed task to the pending state for re-execution.

        ``checkpointed_work`` survives the reset: a restart resumes
        from the last checkpoint (shared-storage semantics), not from
        scratch.
        """
        if self.state is not TaskState.FAILED:
            raise RuntimeError(f"{self.name} has not failed")
        self.state = TaskState.PENDING
        self.start_time = None
        self.finish_time = None
        self.machine = None

    # ------------------------------------------------------------------
    # Checkpoint/restart (C17)
    # ------------------------------------------------------------------
    @property
    def remaining_work(self) -> float:
        """Runtime still to execute after the last checkpoint."""
        return max(0.0, self.runtime - self.checkpointed_work)

    def checkpoint_adjusted_work(self) -> float:
        """Remaining work plus the checkpoint writes that fall inside it.

        This is the machine-independent numerator of
        :meth:`Machine.effective_runtime`; placement kernels divide it
        by a whole fleet's speed column at once, so it must stay the
        single source of truth for the checkpoint adjustment.
        """
        remaining = self.remaining_work
        if self.checkpoint_interval is not None and remaining > 0:
            n_checkpoints = max(
                0, math.ceil(remaining / self.checkpoint_interval) - 1)
            remaining += n_checkpoints * self.checkpoint_overhead
        return remaining

    def record_progress(self, work_done: float) -> tuple[float, float]:
        """Fold ``work_done`` (since the last restart) into checkpoints.

        Returns ``(preserved, lost)``: how much of the new work survived
        into ``checkpointed_work`` and how much must be redone.  Without
        a checkpoint interval everything is lost.
        """
        if work_done < 0:
            raise ValueError(f"work_done must be non-negative, got {work_done}")
        if self.checkpoint_interval is None:
            return 0.0, work_done
        total = min(self.runtime, self.checkpointed_work + work_done)
        # The 1e-9 guards against float noise just under a boundary.
        boundary = ((total + 1e-9) // self.checkpoint_interval
                    ) * self.checkpoint_interval
        preserved = max(0.0, boundary - self.checkpointed_work)
        self.checkpointed_work = max(self.checkpointed_work, boundary)
        return preserved, max(0.0, work_done - preserved)

    # ------------------------------------------------------------------
    # Hedged execution (speculative copies)
    # ------------------------------------------------------------------
    def clone_for_speculation(self) -> "Task":
        """A fresh speculative copy racing this task from its checkpoint."""
        clone = Task(runtime=self.runtime, cores=self.cores,
                     memory=self.memory, submit_time=self.submit_time,
                     name=f"{self.name}~hedge", kind=self.kind,
                     deadline=self.deadline, priority=self.priority,
                     checkpoint_interval=self.checkpoint_interval,
                     checkpoint_overhead=self.checkpoint_overhead,
                     input_files=dict(self.input_files),
                     output_files=dict(self.output_files))
        clone.checkpointed_work = self.checkpointed_work
        clone.speculative = True
        return clone

    def complete_from(self, winner: "Task") -> None:
        """Adopt the result of a winning speculative copy.

        The original may be FAILED (it was cancelled once the copy won)
        or still RUNNING bookkeeping-wise; either way it becomes
        FINISHED with the winner's timing.
        """
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"{self.name} has already finished")
        self.state = TaskState.FINISHED
        self.finish_time = winner.finish_time
        self.machine = winner.machine
        if self.start_time is None:
            self.start_time = winner.start_time

    # ------------------------------------------------------------------
    # Metrics (Performance Engineering imports, §3.5)
    # ------------------------------------------------------------------
    @property
    def wait_time(self) -> float:
        """Queueing delay from submission to start."""
        if self.start_time is None:
            raise RuntimeError(f"{self.name} has not started")
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> float:
        """Submission-to-completion latency (a.k.a. turnaround)."""
        if self.finish_time is None:
            raise RuntimeError(f"{self.name} has not finished")
        return self.finish_time - self.submit_time

    @property
    def slowdown(self) -> float:
        """Bounded slowdown: response time over runtime (>= 1)."""
        return self.response_time / max(self.runtime, 1e-9)

    @property
    def core_seconds(self) -> float:
        """Resource demand: runtime x cores."""
        return self.runtime * self.cores

    @property
    def met_deadline(self) -> bool:
        """Whether the task finished by its deadline (True if none set)."""
        if self.deadline is None:
            return True
        if self.finish_time is None:
            return False
        return self.finish_time <= self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Task {self.name} rt={self.runtime} cores={self.cores} "
                f"{self.state.value}>")


class Job:
    """A named group of tasks submitted together by one user."""

    def __init__(self, name: str, tasks: Iterable[Task] = (),
                 user: str = "anonymous", submit_time: float = 0.0) -> None:
        self.name = name
        self.user = user
        self.submit_time = submit_time
        self.tasks: list[Task] = list(tasks)
        for task in self.tasks:
            task.submit_time = submit_time

    def add(self, task: Task) -> Task:
        """Add a task, aligning its submit time to the job's."""
        task.submit_time = self.submit_time
        self.tasks.append(task)
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def is_finished(self) -> bool:
        """Whether every task finished."""
        return bool(self.tasks) and all(
            t.state is TaskState.FINISHED for t in self.tasks)

    @property
    def makespan(self) -> float:
        """Completion time of the last task minus job submission."""
        if not self.is_finished:
            raise RuntimeError(f"job {self.name} has unfinished tasks")
        return max(t.finish_time for t in self.tasks) - self.submit_time

    @property
    def total_core_seconds(self) -> float:
        """Aggregate resource demand of the job."""
        return sum(t.core_seconds for t in self.tasks)


class BagOfTasks(Job):
    """A job of independent tasks — the dominant grid workload [107]."""

    def __init__(self, name: str, tasks: Iterable[Task] = (),
                 user: str = "anonymous", submit_time: float = 0.0) -> None:
        tasks = list(tasks)
        for task in tasks:
            if task.dependencies:
                raise ValueError(
                    f"bag-of-tasks {name!r} contains dependent task {task.name!r}")
        super().__init__(name, tasks, user=user, submit_time=submit_time)
