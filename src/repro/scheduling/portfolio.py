"""Portfolio scheduling (C6 approach class iv; [112], [22]).

A portfolio scheduler holds several candidate scheduling policies and,
at each decision point, selects the one whose *simulated* outcome on
the current system state is best — the paper's own line of work on
"self-expressive management of business-critical workloads" [112].

The selection simulation here is a fast aggregate-capacity estimator:
the datacenter is abstracted to its total core count, running tasks
release cores at their expected finish times, and each candidate
ordering is replayed in virtual time to estimate the mean slowdown of
the queued tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..sim import Simulator
from ..workload.task import Task
from .policies import QueuePolicy
from .scheduler import ClusterScheduler

__all__ = ["estimate_mean_slowdown", "PortfolioScheduler", "PolicyScore"]


def estimate_mean_slowdown(ordered_tasks: Sequence[Task], now: float,
                           total_cores: int,
                           releases: Sequence[tuple[float, int]]) -> float:
    """Estimated mean slowdown of serving ``ordered_tasks`` in order.

    Args:
        ordered_tasks: Queue in the candidate service order.
        now: Current time (waits are measured from each task's submit).
        total_cores: Aggregate capacity of the datacenter.
        releases: ``(time, cores)`` of future releases by running tasks.

    The estimator is conservative (aggregate capacity ignores
    per-machine fragmentation) but ranks policies consistently, which
    is all portfolio selection needs.
    """
    if total_cores < 1:
        raise ValueError("total_cores must be >= 1")
    if not ordered_tasks:
        return 1.0
    free = total_cores - sum(cores for _, cores in releases)
    pending_releases = sorted(releases)
    virtual_now = now
    slowdowns = []
    running: list[tuple[float, int]] = list(pending_releases)
    for task in ordered_tasks:
        # Advance virtual time until the task's cores fit.
        while free < task.cores and running:
            release_time, cores = running.pop(0)
            virtual_now = max(virtual_now, release_time)
            free += cores
        if free < task.cores:
            # Task can never fit: charge a large penalty.
            slowdowns.append(1e6)
            continue
        start = max(virtual_now, task.submit_time)
        finish = start + task.runtime
        free -= task.cores
        # Insert this task's own release.
        index = 0
        while index < len(running) and running[index][0] <= finish:
            index += 1
        running.insert(index, (finish, task.cores))
        wait = start - task.submit_time
        slowdowns.append((wait + task.runtime) / max(task.runtime, 1e-9))
    return sum(slowdowns) / len(slowdowns)


@dataclass(frozen=True)
class PolicyScore:
    """Outcome of evaluating one candidate policy."""

    policy_name: str
    score: float


class PortfolioScheduler:
    """Periodically re-selects the live queue policy of a scheduler.

    At construction and every ``interval`` simulated seconds after, all
    candidate policies are scored on the current queue with
    :func:`estimate_mean_slowdown`; the winner becomes the scheduler's
    queue policy.  ``history`` records each switch for later analysis.
    """

    def __init__(self, sim: Simulator, scheduler: ClusterScheduler,
                 candidates: Sequence[QueuePolicy],
                 interval: float = 50.0) -> None:
        if not candidates:
            raise ValueError("portfolio needs at least one candidate policy")
        self.sim = sim
        self.scheduler = scheduler
        self.candidates = list(candidates)
        self.interval = interval
        self.history: list[tuple[float, str]] = []
        self._ticker = sim.every(interval, self._tick, at_start=True,
                                 name="portfolio")
        sim.keep_alive.append(self._work_waits)

    def evaluate(self) -> list[PolicyScore]:
        """Score every candidate on the current queue snapshot."""
        queue = list(self.scheduler.queue)
        now = self.sim.now
        total_cores = self.scheduler.datacenter.total_cores
        releases = [
            (start + machine.effective_runtime(task), task.cores)
            for task, (machine, start) in self.scheduler._running.items()]
        scores = []
        for policy in self.candidates:
            ordered = policy.order(queue, now)
            score = estimate_mean_slowdown(ordered, now, total_cores,
                                           releases)
            scores.append(PolicyScore(policy.name, score))
        return scores

    def select(self) -> QueuePolicy:
        """Pick the best candidate and install it on the scheduler."""
        scores = self.evaluate()
        best_index = min(range(len(scores)), key=lambda i: scores[i].score)
        winner = self.candidates[best_index]
        if (not self.history
                or self.history[-1][1] != winner.name):
            self.history.append((self.sim.now, winner.name))
        self.scheduler.queue_policy = winner
        return winner

    def _tick(self, _now: float) -> None:
        if self.scheduler.queue:
            self.select()
            self.scheduler._poke()

    def _work_waits(self) -> bool:
        # Keep-alive: a new order may start a task the old one held back.
        return not self._ticker.stopped and bool(self.scheduler.queue)

    def stop(self) -> None:
        """Stop the selection loop at the next tick."""
        self._ticker.stop()

    @property
    def switches(self) -> int:
        """Number of times the active policy changed."""
        return max(0, len(self.history) - 1)
