"""An index-backed waiting queue, sorted per core demand.

The scheduler's waiting queue historically was a plain list: O(n)
``remove`` on every task start, and a full ``sorted()`` of the queue on
every scheduling round.  Under a 10k-task backlog those two costs
dominate the whole simulation.  :class:`TaskQueue` replaces the list
with:

- a membership dict (O(1) ``in``/``remove``/``len``);
- an insertion-ordered entry deque using *tombstones* — removal marks
  the entry dead instead of shifting the tail, and dead entries are
  swept in amortized batches;
- one *sorted group per core demand* (``task.cores``): entries are kept
  sorted by ``bisect.insort`` at enqueue time under the active queue
  policy's time-invariant sort key (FCFS, SJF, ...), or in insertion
  order without one.  :meth:`walk` merges the group heads lazily in
  service order and can drop every group whose core demand exceeds a
  caller-supplied limit, so a scheduling round visits the tasks the
  free capacity could hold instead of the whole backlog.  A full
  rebuild (first round, or a policy swap) is one ``sort()`` of the
  live entries, paid once per swap rather than once per round.

Order semantics are exactly those of the old list: iteration yields
live tasks in insertion order, and the unbounded walk equals
``sorted(queue, key=...)`` (keys embed ``task_id``, and ties fall back
to the enqueue sequence, so stability never matters).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heapify, heappop, heapreplace
from typing import Callable, Iterable, Iterator, Optional

from ..workload.task import Task

__all__ = ["TaskQueue"]

#: Sweep dead entries once they outnumber live ones beyond this floor.
_COMPACT_FLOOR = 64


def _insertion_key(task: Task) -> tuple:
    """Sort key without a queue policy: ``(key, seq)`` is then ``seq``."""
    return ()


class _Entry:
    """One queue slot; ``alive`` is cleared instead of unlinking."""

    __slots__ = ("task", "seq", "alive")

    def __init__(self, task: Task, seq: int) -> None:
        self.task = task
        self.seq = seq
        self.alive = True


class _Group:
    """The ``(key, seq, entry)`` items of one core demand, sorted."""

    __slots__ = ("items", "dead")

    def __init__(self) -> None:
        self.items: list[tuple] = []
        #: Tombstones still in ``items``.
        self.dead = 0


class TaskQueue:
    """Waiting-queue container used by :class:`ClusterScheduler`.

    Supports the list-like surface external code relies on (``in``,
    ``len``, truthiness, iteration, ``append``/``extend``/``remove``)
    plus :meth:`walk` and :meth:`ordered`, which yield the service
    order under the key installed with :meth:`set_key` (or insertion
    order without one).
    """

    def __init__(self, key: Optional[Callable[[Task], tuple]] = None) -> None:
        self._entries: deque[_Entry] = deque()
        self._live: dict[Task, _Entry] = {}
        self._seq = 0
        self._dead = 0
        self._key: Callable[[Task], tuple] = _insertion_key
        self._groups: dict[int, _Group] = {}
        if key is not None:
            self.set_key(key)

    # ------------------------------------------------------------------
    # List-like surface
    # ------------------------------------------------------------------
    def append(self, task: Task) -> None:
        """Enqueue ``task`` (must not already be queued)."""
        if task in self._live:
            raise ValueError(f"task {task.name} is already queued")
        entry = _Entry(task, self._seq)
        self._seq += 1
        self._live[task] = entry
        self._entries.append(entry)
        group = self._groups.get(task.cores)
        if group is None:
            group = self._groups[task.cores] = _Group()
        insort(group.items, (self._key(task), entry.seq, entry))

    def extend(self, tasks: Iterable[Task]) -> None:
        """Enqueue several tasks in order."""
        for task in tasks:
            self.append(task)

    def remove(self, task: Task) -> None:
        """Dequeue ``task``; raises ``ValueError`` if absent (like list)."""
        entry = self._live.pop(task, None)
        if entry is None:
            raise ValueError(f"task {task!r} is not queued")
        entry.alive = False
        self._dead += 1
        if self._dead > _COMPACT_FLOOR and self._dead > len(self._live):
            self._entries = deque(e for e in self._entries if e.alive)
            self._dead = 0
        group = self._groups[task.cores]
        group.dead += 1
        if group.dead > _COMPACT_FLOOR and \
                group.dead > len(group.items) - group.dead:
            # Rebind instead of filtering in place: a walk in progress
            # keeps iterating the list it started on.
            group.items = [item for item in group.items if item[2].alive]
            group.dead = 0

    def __contains__(self, task: object) -> bool:
        return task in self._live

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __iter__(self) -> Iterator[Task]:
        """Live tasks in insertion order."""
        for entry in self._entries:
            if entry.alive:
                yield entry.task

    # ------------------------------------------------------------------
    # Service order
    # ------------------------------------------------------------------
    @property
    def has_key(self) -> bool:
        """Whether an incremental sort key is installed."""
        return self._key is not _insertion_key

    def set_key(self, key: Optional[Callable[[Task], tuple]]) -> None:
        """Install (or clear) the incremental sort key.

        Rebuilds the groups from the live entries, so it is safe to call
        mid-stream when a portfolio scheduler swaps policies.
        """
        self._key = key if key is not None else _insertion_key
        items = [(self._key(entry.task), entry.seq, entry)
                 for entry in self._entries if entry.alive]
        if key is not None:
            items.sort()
        groups: dict[int, _Group] = {}
        for item in items:
            cores = item[2].task.cores
            group = groups.get(cores)
            if group is None:
                group = groups[cores] = _Group()
            group.items.append(item)
        self._groups = groups

    def walk(self, limit: Optional[Callable[[], float]] = None
             ) -> Iterator[Task]:
        """Live tasks in service order, merged lazily from the groups.

        With ``limit``, every group whose core demand exceeds
        ``limit()`` is dropped and its tasks are never visited.  The
        walk calls ``limit()`` before its first comparison and again
        after each task it yields, so the limit may fall as the caller
        places tasks, but it must not grow during a walk.  Without
        ``limit``, the walk is the full service order.

        Starting a walk trims the tombstones at the head of each group
        in place, which invalidates any other walk still in progress.
        Tasks removed while the walk runs are skipped; the queue must
        not be appended to until the walk is done.
        """
        heap = []
        for cores, group in self._groups.items():
            items = group.items
            dead = 0
            for item in items:
                if item[2].alive:
                    break
                dead += 1
            if dead:
                del items[:dead]
                group.dead -= dead
            if items:
                heap.append((items[0], cores, items, 0))
        heapify(heap)
        bound = None
        while heap:
            item, cores, items, pos = heap[0]
            if limit is not None:
                if bound is None:
                    bound = limit()
                if cores > bound:
                    heappop(heap)
                    continue
            # Advance this group to its next live item before yielding,
            # so the caller may remove the yielded task freely.
            pos += 1
            end = len(items)
            while pos < end and not items[pos][2].alive:
                pos += 1
            if pos < end:
                heapreplace(heap, (items[pos], cores, items, pos))
            else:
                heappop(heap)
            entry = item[2]
            if entry.alive:
                yield entry.task
                bound = None

    def ordered(self) -> list[Task]:
        """Service order under the installed key (insertion order if none)."""
        return list(self.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskQueue {len(self._live)} queued>"
