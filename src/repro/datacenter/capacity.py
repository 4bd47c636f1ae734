"""Incremental capacity index over a datacenter topology.

The placement hot path of a cluster scheduler asks two questions tens of
thousands of times per simulated hour: *which machines are up?* and
*which machines can fit this task?*  Answering them by rescanning the
cluster/rack/machine tree is O(machines) per query and dominates
large-scale runs.  :class:`CapacityIndex` answers both incrementally:

- a flat, cached machine tuple (invalidated only on topology changes);
- per-cluster free/used core counters maintained from machine watcher
  notifications (O(1) per allocate/release, O(cluster) per
  failure/repair, which are rare);
- a :class:`CapacityVectors` view — numpy arrays of per-machine free
  cores and free memory, maintained as an exact mirror of the machine
  counters — on which vectorized placement policies evaluate a whole
  fleet in one C-speed pass instead of a per-machine attribute walk,
  and :meth:`largest_free_cores` bounds which task sizes can fit at all.

The index is deliberately *order-preserving*: machines are always
yielded in topology order (clusters, then racks, then mount order),
exactly the order the old ``Datacenter.available_machines()`` scan
produced, so placement decisions — and therefore whole simulations —
stay bit-identical.  The vector view obeys the same contract: array
slot ``i`` is machine ``i`` in topology order, every stored value is
computed by the same float expression :meth:`Machine.can_fit` uses, and
a down machine stores ``cores_free == -1`` so no task (``cores >= 1``)
can match it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

from . import cluster as _topology
from .cluster import Cluster
from .machine import Machine

__all__ = ["CapacityIndex", "CapacityVectors"]


class _ClusterEntry:
    """Per-cluster aggregate counters plus the cached machine list."""

    __slots__ = ("cluster", "machines", "free_cores", "used_cores",
                 "total_cores")

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.machines: tuple[Machine, ...] = ()
        self.free_cores = 0
        self.used_cores = 0
        self.total_cores = 0

    def recount(self) -> None:
        """Rebuild the machine list and counters from scratch."""
        self.machines = tuple(self.cluster.machines())
        free = 0
        used = 0
        total = 0
        for machine in self.machines:
            total += machine.spec.cores
            used += machine._cores_used
            if machine._available:
                free += machine.spec.cores - machine._cores_used
        self.free_cores = free
        self.used_cores = used
        self.total_cores = total


class CapacityVectors:
    """Numpy mirror of per-machine capacity, in topology order.

    Maintained by :class:`CapacityIndex` from the same machine watcher
    notifications that keep its cluster counters fresh.  Vectorized
    placement policies evaluate fit over these arrays instead of
    walking machine attributes; the arrays therefore replicate
    :meth:`Machine.can_fit` exactly:

    - ``cores_free[i]`` is ``spec.cores - machine._cores_used`` for an
      available machine and ``-1`` for a down one.  Tasks always demand
      at least one core, so ``task.cores <= cores_free[i]`` is
      bit-equivalent to ``machine.available and can-fit-cores``.
    - ``memory_free[i]`` stores the exact float produced by
      ``spec.memory - _alloc_memory - _reserved_memory`` — the same
      left-to-right expression ``can_fit`` evaluates — refreshed (not
      accumulated) on every notification, so no float drift is possible.
    - static columns (``speed``, ``cost_per_hour``, ``delta_watts``,
      ``cores_total``, ``name_rank``) feed the scoring placement
      policies; ``name_rank`` is the lexicographic rank of each machine
      name, replicating the ``(key, name)`` tie-breaks of the scalar
      policies without string comparisons.
    """

    __slots__ = ("machines", "cores_free", "memory_free",
                 "memory_free_eps", "speed", "cost_per_hour",
                 "delta_watts", "cores_total", "name_rank",
                 "_avail_positions", "_avail_epoch", "_index",
                 "_mask_a", "_mask_b")

    def __init__(self, machines: tuple[Machine, ...]) -> None:
        n = len(machines)
        self.machines = machines
        self.cores_free = _np.empty(n, dtype=_np.int64)
        self.memory_free = _np.empty(n, dtype=_np.float64)
        #: ``memory_free + 1e-12`` maintained alongside, so the fit
        #: mask is two comparisons with no temporary allocation.
        self.memory_free_eps = _np.empty(n, dtype=_np.float64)
        self._mask_a = _np.empty(n, dtype=_np.bool_)
        self._mask_b = _np.empty(n, dtype=_np.bool_)
        self.speed = _np.empty(n, dtype=_np.float64)
        self.cost_per_hour = _np.empty(n, dtype=_np.float64)
        self.delta_watts = _np.empty(n, dtype=_np.float64)
        self.cores_total = _np.empty(n, dtype=_np.int64)
        self._index = {}
        for i, machine in enumerate(machines):
            spec = machine.spec
            self.speed[i] = spec.speed
            self.cost_per_hour[i] = spec.cost_per_hour
            self.delta_watts[i] = spec.max_watts - spec.idle_watts
            self.cores_total[i] = spec.cores
            self._index[machine.name] = i
            self.refresh(machine, i)
        self.name_rank = _np.empty(n, dtype=_np.int64)
        order = sorted(range(n), key=lambda i: machines[i].name)
        for rank, i in enumerate(order):
            self.name_rank[i] = rank
        self._avail_positions = None
        self._avail_epoch = -1

    def refresh(self, machine: Machine, i: int | None = None) -> None:
        """Re-derive machine ``i``'s row from its exact counters."""
        if i is None:
            i = self._index.get(machine.name)
            if i is None:
                return
        spec = machine.spec
        if machine._available:
            self.cores_free[i] = spec.cores - machine._cores_used
        else:
            self.cores_free[i] = -1
        free = (spec.memory - machine._alloc_memory
                - machine._reserved_memory)
        self.memory_free[i] = free
        self.memory_free_eps[i] = free + 1e-12

    def fit_mask(self, cores: int, memory: float):
        """Boolean fit mask over all machines for one task shape.

        Bit-equivalent to ``machine.available and machine.can_fit``:
        the memory comparison keeps ``can_fit``'s exact
        ``demand <= free + 1e-12`` form and operand order (the epsilon
        sum is precomputed per machine, which stores the identical
        float).  The returned array is a reused buffer, valid until the
        next ``fit_mask`` call on this view.
        """
        mask = self._mask_a
        _np.less_equal(cores, self.cores_free, out=mask)
        _np.less_equal(memory, self.memory_free_eps, out=self._mask_b)
        _np.logical_and(mask, self._mask_b, out=mask)
        return mask

    def available_positions(self, epoch: int):
        """Indices of up machines in topology order (epoch-cached)."""
        if self._avail_epoch != epoch:
            self._avail_positions = _np.flatnonzero(self.cores_free >= 0)
            self._avail_epoch = epoch
        return self._avail_positions


class CapacityIndex:
    """Watches machines and keeps datacenter-wide capacity aggregates.

    The index subscribes itself as a watcher on every machine; machines
    call back on every allocate/release (``machine_delta``) and on every
    availability flip (``machine_availability``).  Topology changes
    (racks/machines added after construction) are detected lazily via a
    cheap machine-count check on each query.
    """

    def __init__(self, clusters: Sequence[Cluster]) -> None:
        self.clusters = clusters
        self._entries: list[_ClusterEntry] = []
        self._by_cluster: dict[int, _ClusterEntry] = {}
        self._machines: tuple[Machine, ...] = ()
        self._machine_cluster: dict[str, _ClusterEntry] = {}
        #: Bumped whenever the set of *available* machines may have
        #: changed; lets callers cache availability-derived views.
        self.availability_epoch = 0
        #: Bumped whenever capacity may have *grown* anywhere (core or
        #: memory release, availability flip, topology rebuild).  While
        #: it stands still, a demand shape proven unplaceable stays
        #: unplaceable — the scheduler's dominated-demand skip carries
        #: its failed set across rounds on this guarantee.
        self.release_epoch = 0
        self._available_cache: tuple[Machine, ...] | None = None
        self._available_cache_epoch = -1
        self._topology_version = -1
        #: Numpy capacity mirror, rebuilt with the topology.
        self.vectors: CapacityVectors
        self._rebuild()

    # ------------------------------------------------------------------
    # Construction / topology maintenance
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Full re-index; called at construction and on topology growth."""
        self._entries = []
        self._by_cluster = {}
        self._machine_cluster = {}
        machines: list[Machine] = []
        for cluster in self.clusters:
            entry = _ClusterEntry(cluster)
            entry.recount()
            self._entries.append(entry)
            self._by_cluster[id(cluster)] = entry
            for machine in entry.machines:
                machine.add_watcher(self)
                self._machine_cluster[machine.name] = entry
            machines.extend(entry.machines)
        self._machines = tuple(machines)
        self.vectors = CapacityVectors(self._machines)
        self.availability_epoch += 1
        self.release_epoch += 1
        self._available_cache = None

    def _check_topology(self) -> None:
        """Detect machines added since the last (re)build.

        Topology only ever *grows* (racks and machines are added, never
        removed), and every growth path bumps the process-wide
        ``cluster.topology_version()`` counter, so an unchanged version
        makes this probe O(1).  On a version change (possibly from an
        unrelated topology) a total-count comparison decides whether
        *this* index is stale.
        """
        version = _topology.topology_version()
        if version == self._topology_version:
            return
        count = 0
        for cluster in self.clusters:
            for rack in cluster.racks:
                count += len(rack.machines)
        if count != len(self._machines):
            self._rebuild()
        self._topology_version = version

    # ------------------------------------------------------------------
    # Watcher callbacks (invoked by Machine)
    # ------------------------------------------------------------------
    def machine_delta(self, machine: Machine, cores_delta: int) -> None:
        """An allocation changed by ``cores_delta`` cores on ``machine``."""
        entry = self._machine_cluster.get(machine.name)
        if entry is None:
            return
        entry.used_cores += cores_delta
        if machine._available:
            entry.free_cores -= cores_delta
        if cores_delta <= 0:
            # A release (or a zero-delta memory-reservation change) may
            # have grown capacity; invalidate carried failure proofs.
            self.release_epoch += 1
        self.vectors.refresh(machine)

    def machine_availability(self, machine: Machine) -> None:
        """``machine`` flipped availability (fail/repair/decommission)."""
        entry = self._machine_cluster.get(machine.name)
        if entry is not None:
            entry.recount()
        self.vectors.refresh(machine)
        self.availability_epoch += 1
        self.release_epoch += 1

    def sync(self) -> CapacityVectors:
        """Run the topology staleness check once and return the vectors.

        The scheduler calls this at the top of each epoch so the
        vectorized kernels inside the round can use the arrays without
        paying the per-query topology scan.  Topology can only change
        between events, never inside a synchronous scheduling round, so
        one check per round gives the same guarantee the per-query
        check gives the other queries.
        """
        self._check_topology()
        return self.vectors

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def machines(self) -> tuple[Machine, ...]:
        """All machines in topology order (cached)."""
        self._check_topology()
        return self._machines

    def available_machines(self) -> tuple[Machine, ...]:
        """Machines that are up, in topology order (epoch-cached)."""
        self._check_topology()
        if self._available_cache_epoch != self.availability_epoch:
            self._available_cache = tuple(
                m for m in self._machines if m._available)
            self._available_cache_epoch = self.availability_epoch
        assert self._available_cache is not None
        return self._available_cache

    def used_cores_total(self) -> int:
        """Cores currently allocated across the datacenter."""
        self._check_topology()
        return sum(entry.used_cores for entry in self._entries)

    def total_cores(self) -> int:
        """Installed cores across the datacenter (cached)."""
        self._check_topology()
        return sum(entry.total_cores for entry in self._entries)

    def free_cores_total(self) -> int:
        """Cores currently free on available machines."""
        self._check_topology()
        return sum(entry.free_cores for entry in self._entries)

    def largest_free_cores(self) -> int:
        """Most free cores on any one up machine (``-1`` if none is up).

        No task demanding more cores can be placed anywhere right now,
        whatever the placement policy.
        """
        self._check_topology()
        cores_free = self.vectors.cores_free
        return int(cores_free.max()) if cores_free.size else -1

    def cluster_free_cores(self, cluster: Cluster) -> int:
        """Free cores of one cluster (counter lookup, no scan)."""
        self._check_topology()
        entry = self._by_cluster.get(id(cluster))
        return entry.free_cores if entry is not None else 0

    def cluster_used_cores(self, cluster: Cluster) -> int:
        """Used cores of one cluster (counter lookup, no scan)."""
        self._check_topology()
        entry = self._by_cluster.get(id(cluster))
        return entry.used_cores if entry is not None else 0
