"""Allocation and placement policies (C7).

The paper notes that "allocating workloads to the provisioned resources
has been a topic of research in regular scheduling for decades, with
hundreds of approaches and policies [117]".  This module provides the
classic families in two orthogonal roles:

- *Queue ordering* (:class:`QueuePolicy`): which waiting task to serve
  next — FCFS, SJF, LJF, EDF, smallest-first, random, fair-share.
- *Machine selection* (:class:`PlacementPolicy`): where to place the
  chosen task — first-fit, best-fit, worst-fit, round-robin, and the
  heterogeneity-, cost-, and energy-aware variants of C4.

Every policy has a *reference* implementation (``order``/``select``
over plain Python sequences) and, where possible, a fast-path twin:

- Queue policies with time-invariant keys expose their sort key through
  the ``_INCREMENTAL_SORT_KEYS`` seam; ``order()`` and the incremental
  :class:`TaskQueue` view share the *same* key function, so the two can
  never disagree.  :class:`FairShare` routes through the same seam via
  :meth:`FairShare.sort_key` but is excluded from the incremental
  registry because its key mutates as tasks complete;
  :class:`RandomOrder` is a documented slow-path fallback (its output
  is an RNG stream, not a sort).
- Placement policies gain vectorized kernels (``vectorized_placement``)
  that evaluate one task against a whole fleet's
  :class:`~repro.datacenter.capacity.CapacityVectors` in a single numpy
  pass.  Each kernel replicates its reference ``select`` bit-for-bit:
  the fit mask mirrors :meth:`Machine.can_fit`'s exact float
  comparison, scoring expressions keep the scalar operand order, and
  name tie-breaks use a precomputed lexicographic rank column.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

import numpy as _np

from ..datacenter.machine import Machine
from ..workload.task import Task

__all__ = [
    "QueuePolicy",
    "PlacementPolicy",
    "FCFS",
    "SJF",
    "LJF",
    "EDF",
    "SmallestTaskFirst",
    "RandomOrder",
    "FairShare",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "RoundRobin",
    "FastestFit",
    "CheapestFit",
    "GreenestFit",
    "DataLocalFit",
    "QUEUE_POLICIES",
    "PLACEMENT_POLICIES",
    "ORDER_FALLBACKS",
    "incremental_sort_key",
    "vectorized_placement",
]


class QueuePolicy(Protocol):
    """Orders the waiting queue; the scheduler serves the front first."""

    name: str

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Return the queue in service order (does not mutate input)."""
        ...  # pragma: no cover


class PlacementPolicy(Protocol):
    """Chooses a machine for a task, or ``None`` if nothing fits now."""

    name: str

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return a machine that can fit ``task`` now, or ``None``."""
        ...  # pragma: no cover


# ---------------------------------------------------------------------------
# Queue-ordering policies
# ---------------------------------------------------------------------------
# Key-extraction seam: each sortable policy's key lives here once, and
# both its order() and the incremental TaskQueue registry reference the
# same function, so the slow and fast paths cannot drift apart.
def _fcfs_key(t: Task):
    return (t.submit_time, t.task_id)


def _sjf_key(t: Task):
    return (t.runtime, t.task_id)


def _ljf_key(t: Task):
    return (-t.runtime, t.task_id)


def _edf_key(t: Task):
    return (t.deadline if t.deadline is not None else float("inf"),
            t.submit_time, t.task_id)


def _smallest_key(t: Task):
    return (t.cores, t.runtime, t.task_id)


class FCFS:
    """First-come first-served: by submission time."""

    name = "fcfs"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Order by submission time, ties by task id."""
        return sorted(queue, key=_fcfs_key)


class SJF:
    """Shortest job first: by runtime estimate."""

    name = "sjf"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Order by estimated runtime, shortest first."""
        return sorted(queue, key=_sjf_key)


class LJF:
    """Longest job first: by runtime estimate, descending."""

    name = "ljf"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Order by estimated runtime, longest first."""
        return sorted(queue, key=_ljf_key)


class EDF:
    """Earliest deadline first; deadline-less tasks go last (FCFS among them)."""

    name = "edf"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Order by deadline; deadline-less tasks go last."""
        return sorted(queue, key=_edf_key)


class SmallestTaskFirst:
    """Fewest cores first — drains fragmentation-era small tasks [39]."""

    name = "smallest-first"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Order by core demand, smallest first."""
        return sorted(queue, key=_smallest_key)


class RandomOrder:
    """Uniformly random service order (a fairness baseline).

    Deliberate slow-path fallback: the service order is an RNG stream,
    not a sort, so there is no time-invariant key to extract and
    ``incremental_sort_key`` returns ``None``.  The scheduler must call
    ``order()`` every round — and exactly once per round, since each
    call advances the RNG and therefore the simulation's random state.
    """

    name = "random"

    def __init__(self, rng: random.Random | None = None) -> None:
        self.rng = rng or random.Random(0)

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Return a uniformly random permutation."""
        shuffled = list(queue)
        self.rng.shuffle(shuffled)
        return shuffled


class FairShare:
    """Round-robins across users by accumulated served core-seconds.

    Users who have consumed less get priority — the multi-tenancy
    fairness concern of P5.

    ``order`` routes through the same key-extraction seam as the
    vectorized policies (:meth:`sort_key`), but the key reads mutable
    served-share state, so the policy is excluded from the incremental
    registry and re-sorts every round (a documented slow path).
    """

    name = "fair-share"

    def __init__(self) -> None:
        self._served: dict[str, float] = {}
        self._owner: dict[int, str] = {}

    def register(self, task: Task, user: str) -> None:
        """Associate a task with its submitting user."""
        self._owner[task.task_id] = user

    def charge(self, task: Task) -> None:
        """Account a completed task against its user's share."""
        user = self._owner.get(task.task_id, "anonymous")
        self._served[user] = self._served.get(user, 0.0) + task.core_seconds

    def sort_key(self, task: Task):
        """Current sort key of ``task`` (valid until the next charge)."""
        user = self._owner.get(task.task_id, "anonymous")
        return (self._served.get(user, 0.0), task.submit_time, task.task_id)

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        """Order by the owning user's served core-seconds."""
        return sorted(queue, key=self.sort_key)


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------
def _fitting(task: Task, machines: Sequence[Machine]) -> list[Machine]:
    return [m for m in machines if m.can_fit(task)]


class FirstFit:
    """First machine (in topology order) that fits."""

    name = "first-fit"

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the first machine that fits, else None."""
        for machine in machines:
            if machine.can_fit(task):
                return machine
        return None


class BestFit:
    """Tightest fit: fewest cores left over (consolidating)."""

    name = "best-fit"

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the fitting machine with fewest leftover cores."""
        fitting = _fitting(task, machines)
        if not fitting:
            return None
        return min(fitting, key=lambda m: (m.cores_free - task.cores, m.name))


class WorstFit:
    """Loosest fit: most cores left over (load spreading)."""

    name = "worst-fit"

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the fitting machine with most leftover cores."""
        fitting = _fitting(task, machines)
        if not fitting:
            return None
        return max(fitting, key=lambda m: (m.cores_free - task.cores,
                                           m.name))


class RoundRobin:
    """Cycles through machines, skipping ones that do not fit."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the next fitting machine in rotation."""
        n = len(machines)
        for offset in range(n):
            machine = machines[(self._next + offset) % n]
            if machine.can_fit(task):
                self._next = (self._next + offset + 1) % n
                return machine
        return None


class FastestFit:
    """Heterogeneity-aware: fastest machine that fits (C4)."""

    name = "fastest-fit"

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the fastest fitting machine."""
        fitting = _fitting(task, machines)
        if not fitting:
            return None
        return max(fitting, key=lambda m: (m.spec.speed, m.name))


class CheapestFit:
    """Cost-aware: lowest effective cost (price x effective runtime)."""

    name = "cheapest-fit"

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the cheapest fitting machine for this task."""
        fitting = _fitting(task, machines)
        if not fitting:
            return None
        return min(fitting, key=lambda m: (
            m.spec.cost_per_hour * m.effective_runtime(task), m.name))


class GreenestFit:
    """Energy-aware: smallest marginal energy for this task (C6 class v)."""

    name = "greenest-fit"

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the fitting machine with least marginal energy."""
        fitting = _fitting(task, machines)
        if not fitting:
            return None

        def marginal_energy(machine: Machine) -> float:
            spec = machine.spec
            watts = (spec.max_watts - spec.idle_watts) * (task.cores
                                                          / spec.cores)
            return watts * machine.effective_runtime(task)

        return min(fitting, key=lambda m: (marginal_energy(m), m.name))


class DataLocalFit:
    """Data-locality-aware: fewest remote input bytes to stage in.

    Prefers the fitting machine already holding the largest share of
    the task's input files (SC18 reference architecture: data movement
    as a first-class scheduling stage).  Ties — including every
    placement of a file-less task — break by machine name, so the
    policy degrades to a deterministic name-ordered fit when no data
    is in play.

    The policy reads residency from a
    :class:`~repro.datacenter.datastore.DataStore`; the scheduler binds
    it via :meth:`bind_datacenter` at construction.  Unbound, every
    machine scores zero remote bytes (pure name-ordered tie-break),
    which keeps the policy total and deterministic in isolation.
    """

    name = "data-local"

    def __init__(self) -> None:
        self._store = None

    def bind_datacenter(self, datacenter) -> None:
        """Attach the datacenter's data store (called by the scheduler)."""
        self._store = getattr(datacenter, "data", None)

    def remote_bytes(self, task: Task, machine: Machine) -> float:
        """Input bytes the task would have to stage onto ``machine``."""
        if self._store is None or not task.input_files:
            return 0.0
        return self._store.remote_bytes(task, machine.name)

    def select(self, task: Task,
               machines: Sequence[Machine]) -> Machine | None:
        """Return the fitting machine with fewest remote input bytes."""
        fitting = _fitting(task, machines)
        if not fitting:
            return None
        return min(fitting,
                   key=lambda m: (self.remote_bytes(task, m), m.name))


#: Queue policies whose sort key is constant while a task waits.  For
#: these the scheduler keeps the queue incrementally sorted (insort at
#: submit) instead of re-sorting every round.  Each entry is the *same
#: function object* the policy's ``order`` sorts with — keys embed
#: ``task_id``, so they are total orders and the incremental view is
#: bit-identical to sorted().
_INCREMENTAL_SORT_KEYS = {
    FCFS: _fcfs_key,
    SJF: _sjf_key,
    LJF: _ljf_key,
    EDF: _edf_key,
    SmallestTaskFirst: _smallest_key,
}

#: Queue policies that legitimately bypass the incremental fast path.
#: ``RandomOrder`` is an RNG stream; ``FairShare``'s key reads mutable
#: served-share state.  Tests assert every registered queue policy is
#: either in ``_INCREMENTAL_SORT_KEYS`` or here, so a new policy cannot
#: *silently* miss the fast path.
ORDER_FALLBACKS = frozenset({RandomOrder, FairShare})


def incremental_sort_key(policy: QueuePolicy):
    """Time-invariant sort key of ``policy``, or ``None``.

    ``None`` means the policy's order depends on mutable state (fair
    share) or randomness, so the scheduler must call ``order()`` each
    round.  Matches on exact type: subclasses may override ``order``.
    """
    return _INCREMENTAL_SORT_KEYS.get(type(policy))


# ---------------------------------------------------------------------------
# Vectorized placement kernels
# ---------------------------------------------------------------------------
# Each kernel answers select(task, available_machines()) for one policy
# using the CapacityVectors arrays instead of a per-machine attribute
# walk.  Kernels must be *bit-identical* to their reference: the fit
# mask replicates Machine.can_fit exactly (see CapacityVectors), score
# expressions keep the scalar operand order (IEEE-754 float ops are
# deterministic given operand order), and ties on the score resolve by
# machine-name rank exactly as the (key, name) tuples of the scalar
# min()/max() do.
def _pick(vectors, fitting, keys, largest: bool):
    """Index of the best fitting machine, with scalar-exact tie-breaks.

    ``min()`` over ``(key, name)`` tuples picks the smallest name among
    key ties; ``max()`` picks the largest.  ``name_rank`` is the
    lexicographic rank of each machine name, so argmin/argmax over it
    replicates the string comparison without touching strings.
    """
    best = keys.max() if largest else keys.min()
    ties = fitting[keys == best]
    if ties.size == 1:
        return int(ties[0])
    ranks = vectors.name_rank[ties]
    return int(ties[ranks.argmax() if largest else ranks.argmin()])


def _vec_first_fit(policy, task: Task, index) -> Machine | None:
    vectors = index.vectors
    mask = vectors.fit_mask(task.cores, task.memory)
    if not mask.size:
        return None
    i = int(mask.argmax())
    if not mask[i]:
        return None
    return vectors.machines[i]


def _vec_best_fit(policy, task: Task, index) -> Machine | None:
    vectors = index.vectors
    fitting = _np.flatnonzero(vectors.fit_mask(task.cores, task.memory))
    if not fitting.size:
        return None
    keys = vectors.cores_free[fitting] - task.cores
    return vectors.machines[_pick(vectors, fitting, keys, largest=False)]


def _vec_worst_fit(policy, task: Task, index) -> Machine | None:
    vectors = index.vectors
    fitting = _np.flatnonzero(vectors.fit_mask(task.cores, task.memory))
    if not fitting.size:
        return None
    keys = vectors.cores_free[fitting] - task.cores
    return vectors.machines[_pick(vectors, fitting, keys, largest=True)]


def _vec_round_robin(policy, task: Task, index) -> Machine | None:
    # The reference rotates over the *available* machine sequence, so
    # the kernel works in that index space: positions of up machines in
    # topology order, cached per availability epoch.
    vectors = index.vectors
    positions = vectors.available_positions(index.availability_epoch)
    n = positions.size
    if n == 0:
        return None
    fit_idx = _np.flatnonzero(
        vectors.fit_mask(task.cores, task.memory)[positions])
    if not fit_idx.size:
        return None
    # First fitting machine at or after the rotation cursor, wrapping —
    # i.e. the fitting index with the smallest (i - next) mod n offset.
    offsets = (fit_idx - policy._next) % n
    k = int(fit_idx[offsets.argmin()])
    policy._next = (k + 1) % n
    return vectors.machines[int(positions[k])]


def _vec_fastest_fit(policy, task: Task, index) -> Machine | None:
    vectors = index.vectors
    fitting = _np.flatnonzero(vectors.fit_mask(task.cores, task.memory))
    if not fitting.size:
        return None
    keys = vectors.speed[fitting]
    return vectors.machines[_pick(vectors, fitting, keys, largest=True)]


def _vec_cheapest_fit(policy, task: Task, index) -> Machine | None:
    vectors = index.vectors
    fitting = _np.flatnonzero(vectors.fit_mask(task.cores, task.memory))
    if not fitting.size:
        return None
    # cost_per_hour * (work / speed), in the reference's operand order.
    work = task.checkpoint_adjusted_work()
    keys = vectors.cost_per_hour[fitting] * (work / vectors.speed[fitting])
    return vectors.machines[_pick(vectors, fitting, keys, largest=False)]


def _vec_greenest_fit(policy, task: Task, index) -> Machine | None:
    vectors = index.vectors
    fitting = _np.flatnonzero(vectors.fit_mask(task.cores, task.memory))
    if not fitting.size:
        return None
    # (max_watts - idle_watts) * (cores / spec.cores) * effective_runtime,
    # each factor in the reference's operand order.
    work = task.checkpoint_adjusted_work()
    watts = (vectors.delta_watts[fitting]
             * (task.cores / vectors.cores_total[fitting]))
    keys = watts * (work / vectors.speed[fitting])
    return vectors.machines[_pick(vectors, fitting, keys, largest=False)]


def _vec_data_local(policy, task: Task, index) -> Machine | None:
    # The fleet scan (fit mask) is vectorized; the per-candidate score
    # reuses the policy's own remote_bytes accessor, so the kernel and
    # the reference share one scoring code path and cannot drift.  The
    # candidate set after fitting is small in practice (machines that
    # fit *now*), so the Python scoring loop is not the hot path.
    vectors = index.vectors
    fitting = _np.flatnonzero(vectors.fit_mask(task.cores, task.memory))
    if not fitting.size:
        return None
    machines = vectors.machines
    keys = _np.fromiter(
        (policy.remote_bytes(task, machines[int(i)]) for i in fitting),
        dtype=float, count=fitting.size)
    return machines[_pick(vectors, fitting, keys, largest=False)]


_VECTOR_PLACEMENTS = {
    FirstFit: _vec_first_fit,
    BestFit: _vec_best_fit,
    WorstFit: _vec_worst_fit,
    RoundRobin: _vec_round_robin,
    FastestFit: _vec_fastest_fit,
    CheapestFit: _vec_cheapest_fit,
    GreenestFit: _vec_greenest_fit,
    DataLocalFit: _vec_data_local,
}


def vectorized_placement(policy: PlacementPolicy):
    """Vectorized kernel of ``policy``, or ``None``.

    ``None`` (an unknown or subclassed policy) sends the scheduler down
    the reference ``select()`` path.  Matches on exact type: subclasses
    may override ``select``, so they must not inherit the kernel.  A
    kernel is called as ``kernel(policy, task, index)`` with ``index``
    a :class:`~repro.datacenter.capacity.CapacityIndex`.
    """
    return _VECTOR_PLACEMENTS.get(type(policy))


#: Name -> factory for each queue policy (used by benches and portfolios).
QUEUE_POLICIES = {
    "fcfs": FCFS,
    "sjf": SJF,
    "ljf": LJF,
    "edf": EDF,
    "smallest-first": SmallestTaskFirst,
    "random": RandomOrder,
    "fair-share": FairShare,
}

#: Name -> factory for each placement policy.
PLACEMENT_POLICIES = {
    "first-fit": FirstFit,
    "best-fit": BestFit,
    "worst-fit": WorstFit,
    "round-robin": RoundRobin,
    "fastest-fit": FastestFit,
    "cheapest-fit": CheapestFit,
    "greenest-fit": GreenestFit,
    "data-local": DataLocalFit,
}
