"""Checkpoint/restart semantics for long-running tasks (C17).

Without checkpointing, a machine failure loses the *entire* progress of
every victim task — under correlated bursts this is the dominant source
of wasted work.  A :class:`CheckpointPolicy` stamps tasks with a
checkpoint interval (and an optional per-checkpoint overhead); the
datacenter's execution engine then preserves progress at interval
boundaries, so an interrupted task restarts from its last checkpoint
instead of from zero — it loses strictly less than one interval of
work.

The mechanics live on :class:`~repro.workload.task.Task`
(``checkpoint_interval``, ``checkpointed_work``,
``record_progress``) and in
:meth:`repro.datacenter.datacenter.Datacenter.execute`; this module
provides the policy object and pure helpers.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..workload.task import Task

__all__ = ["CheckpointPolicy", "checkpoints_remaining", "preserved_work"]


def checkpoints_remaining(remaining_work: float, interval: float) -> int:
    """Checkpoints taken while executing ``remaining_work`` seconds.

    A checkpoint is written at every whole interval boundary; the final
    completion needs none, so e.g. 90s of work at interval 30 writes
    checkpoints at 30 and 60 only.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    if remaining_work <= 0:
        return 0
    return max(0, math.ceil(remaining_work / interval) - 1)


def preserved_work(total_progress: float, interval: float,
                   runtime: float) -> float:
    """Work preserved at the last checkpoint before ``total_progress``."""
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    return min(runtime, math.floor(total_progress / interval) * interval)


class CheckpointPolicy:
    """Stamps tasks with checkpoint parameters.

    Args:
        interval: Work (task-runtime seconds) between checkpoints.
        overhead: Extra service time paid per checkpoint written.
        min_runtime: Only tasks at least this long are checkpointed —
            checkpointing a task shorter than its interval is pure
            overhead.
    """

    def __init__(self, interval: float, overhead: float = 0.0,
                 min_runtime: float = 0.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if overhead < 0:
            raise ValueError(f"overhead must be non-negative, got {overhead}")
        self.interval = interval
        self.overhead = overhead
        self.min_runtime = min_runtime

    def apply(self, tasks: Iterable[Task] | Task) -> int:
        """Stamp ``tasks`` (or one task); returns how many were stamped."""
        if isinstance(tasks, Task):
            tasks = (tasks,)
        stamped = 0
        for task in tasks:
            if task.runtime >= max(self.min_runtime, self.interval):
                task.checkpoint_interval = self.interval
                task.checkpoint_overhead = self.overhead
                stamped += 1
        return stamped
