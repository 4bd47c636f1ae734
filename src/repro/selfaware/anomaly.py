"""Recovery planning (C6 problem (i)).

A :class:`RecoveryPlanner` watches a scheduler for failed tasks and
resubmits them with bounded retries, the smallest useful instance of
C6's "recovery planning" problem class.
"""

from __future__ import annotations

from ..scheduling.scheduler import ClusterScheduler
from ..workload.task import Task, TaskState

__all__ = ["RecoveryPlanner"]


class RecoveryPlanner:
    """Resubmits failed tasks under a composable retry policy.

    Registers on the scheduler's completion hook; every task that
    arrives in the FAILED state is reset and resubmitted according to
    a :class:`~repro.resilience.policies.RetryPolicy` — after the
    policy's backoff delay, until its attempt budget is spent, after
    which the task is recorded as abandoned.

    Args:
        scheduler: The scheduler to watch and resubmit through.
        max_retries: Retry budget when no ``retry_policy`` is given;
            the resulting default policy resubmits immediately
            (zero-delay fixed backoff), the seed's historic behavior.
        retry_policy: Overrides ``max_retries`` with an explicit
            policy (e.g. exponential backoff with jitter).
        rng: Optional jitter source — pass a
            :class:`~repro.sim.RandomStreams` substream so recovery
            stays bit-reproducible under one experiment seed.
    """

    def __init__(self, scheduler: ClusterScheduler,
                 max_retries: int = 3, retry_policy=None,
                 rng=None) -> None:
        if retry_policy is None:
            if max_retries < 0:
                raise ValueError("max_retries must be non-negative")
            # Lazy import: repro.resilience.chaos imports the
            # scheduling stack, so a module-level import would cycle.
            from ..resilience.policies import FixedBackoff, NoRetry
            retry_policy = (NoRetry() if max_retries == 0 else
                            FixedBackoff(max_attempts=max_retries + 1,
                                         delay=0.0))
        self.scheduler = scheduler
        self.retry_policy = retry_policy
        self.max_retries = retry_policy.max_retries
        self._rng = rng
        self._sessions: dict[int, object] = {}
        self.retries: dict[int, int] = {}
        self.recovered: list[Task] = []
        self.abandoned: list[Task] = []
        scheduler.on_task_complete.append(self._on_task_complete)

    def _on_task_complete(self, task: Task) -> None:
        if task.state is TaskState.FINISHED:
            if task.task_id in self.retries:
                self.recovered.append(task)
            return
        if task.state is not TaskState.FAILED:
            return
        session = self._sessions.get(task.task_id)
        if session is None:
            session = self.retry_policy.session(self._rng)
            self._sessions[task.task_id] = session
        delay = session.next_delay()
        if delay is None:
            self.abandoned.append(task)
            return
        self.retries[task.task_id] = session.retries
        if delay <= 0:
            task.reset_for_retry()
            self.scheduler.submit(task)
        else:
            self.scheduler.sim.process(
                self._resubmit_later(task, delay),
                name=f"recovery-{task.name}")

    def _resubmit_later(self, task: Task, delay: float):
        yield self.scheduler.sim.timeout(delay)
        if task.state is TaskState.FAILED:
            task.reset_for_retry()
            self.scheduler.submit(task)

    @property
    def total_retries(self) -> int:
        """Total resubmissions performed."""
        return sum(self.retries.values())
