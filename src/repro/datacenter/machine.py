"""Machines: the leaf resources of the datacenter substrate.

Machines model the *infrastructure heterogeneity* of C4: different core
counts, memory sizes, relative speeds, and accelerator kinds (CPU, GPU,
TPU, FPGA) — "this is different from the past, when datacenters were
filled with similar hardware".  Each machine exposes capacity
book-keeping (used by schedulers) and a linear power model (used by the
energy accounting of C6's energy-proportionality problems).

Capacity book-keeping is *incremental*: ``cores_used`` and
``memory_used`` are counters maintained on allocate/release rather than
sums over the allocation table, so schedulers can probe thousands of
machines per round in O(1) each.  Machines also accept *watchers*
(see :class:`repro.datacenter.capacity.CapacityIndex`) that are
notified on every capacity or availability change, which lets
datacenter-level indexes stay consistent without rescans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..workload.task import Task

__all__ = ["MachineKind", "MachineSpec", "Machine"]


class MachineKind(enum.Enum):
    """Hardware classes named by the paper (C4)."""

    CPU = "cpu"
    GPU = "gpu"
    TPU = "tpu"
    FPGA = "fpga"


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a machine model.

    Attributes:
        cores: Number of cores (or accelerator slots).
        memory: Memory in GiB.
        speed: Relative speed factor; a task's effective runtime is
            ``task.runtime / speed``.
        kind: Hardware class.
        idle_watts / max_watts: Endpoints of the linear power model
            ``P(u) = idle + (max - idle) * u`` at utilization ``u``.
        cost_per_hour: Price used by cost-aware policies (C3).
        link_bandwidth: Network link speed in bytes/second, used to
            convert remote input bytes into stage-in transfer time
            (data-aware scheduling).  Default is 10 Gbit/s.
    """

    cores: int = 8
    memory: float = 32.0
    speed: float = 1.0
    kind: MachineKind = MachineKind.CPU
    idle_watts: float = 100.0
    max_watts: float = 250.0
    cost_per_hour: float = 1.0
    link_bandwidth: float = 1.25e9

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.memory <= 0:
            raise ValueError(f"memory must be positive, got {self.memory}")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.idle_watts < 0 or self.max_watts < self.idle_watts:
            raise ValueError("need 0 <= idle_watts <= max_watts")
        if self.link_bandwidth <= 0:
            raise ValueError(
                f"link_bandwidth must be positive, got {self.link_bandwidth}")


class Machine:
    """A machine instance with allocation book-keeping.

    The machine tracks which tasks hold how many cores and how much
    memory, its availability (failures flip it off), and the energy it
    has consumed under the linear utilization-power model.
    """

    __slots__ = ("name", "spec", "_allocations", "_memory_reservations",
                 "_available", "_cores_used", "_alloc_memory",
                 "_reserved_memory", "_watchers", "energy_joules",
                 "_last_energy_time")

    def __init__(self, name: str, spec: MachineSpec = MachineSpec()) -> None:
        self.name = name
        self.spec = spec
        self._allocations: dict[Task, tuple[int, float]] = {}
        #: Named memory reservations by remote borrowers (scavenging).
        self._memory_reservations: dict[str, float] = {}
        self._available = True
        self._cores_used = 0
        self._alloc_memory = 0.0
        self._reserved_memory = 0.0
        #: Capacity watchers (duck-typed: ``machine_delta(machine,
        #: cores_delta)`` and ``machine_availability(machine)``).
        self._watchers: list = []
        #: Accumulated energy in watt-seconds (joules).
        self.energy_joules = 0.0
        self._last_energy_time = 0.0

    # ------------------------------------------------------------------
    # Watchers (capacity indexes)
    # ------------------------------------------------------------------
    def add_watcher(self, watcher) -> None:
        """Subscribe a capacity watcher (idempotent)."""
        if watcher not in self._watchers:
            self._watchers.append(watcher)

    def _notify_delta(self, cores_delta: int) -> None:
        for watcher in self._watchers:
            watcher.machine_delta(self, cores_delta)

    def _notify_availability(self) -> None:
        for watcher in self._watchers:
            watcher.machine_availability(self)

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether the machine is up (False while failed/decommissioned)."""
        return self._available

    @available.setter
    def available(self, value: bool) -> None:
        value = bool(value)
        if value != self._available:
            self._available = value
            self._notify_availability()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def cores_used(self) -> int:
        """Cores currently allocated."""
        return self._cores_used

    @property
    def cores_free(self) -> int:
        """Cores currently free (0 when the machine is down)."""
        if not self._available:
            return 0
        return self.spec.cores - self._cores_used

    @property
    def memory_used(self) -> float:
        """Memory currently allocated (local tasks + remote borrows), GiB."""
        return self._alloc_memory + self._reserved_memory

    @property
    def memory_free(self) -> float:
        """Memory currently free, GiB (0 when the machine is down)."""
        if not self._available:
            return 0.0
        return self.spec.memory - (self._alloc_memory + self._reserved_memory)

    @property
    def utilization(self) -> float:
        """Core utilization in [0, 1]."""
        return self._cores_used / self.spec.cores

    @property
    def running_tasks(self) -> list[Task]:
        """Tasks currently holding an allocation."""
        return list(self._allocations)

    def can_fit(self, task: Task) -> bool:
        """Whether the task's cores and memory fit right now."""
        if not self._available:
            return False
        spec = self.spec
        return (task.cores <= spec.cores - self._cores_used
                and task.memory <= (spec.memory - self._alloc_memory
                                    - self._reserved_memory) + 1e-12)

    def allocate(self, task: Task) -> None:
        """Claim the task's cores and memory."""
        if not self.can_fit(task):
            raise RuntimeError(
                f"task {task.name} does not fit on machine {self.name}")
        if task in self._allocations:
            raise RuntimeError(f"task {task.name} already allocated here")
        self._allocations[task] = (task.cores, task.memory)
        self._cores_used += task.cores
        self._alloc_memory += task.memory
        if self._watchers:
            self._notify_delta(task.cores)

    def release(self, task: Task) -> None:
        """Return the task's cores and memory."""
        allocation = self._allocations.pop(task, None)
        if allocation is None:
            raise RuntimeError(f"task {task.name} holds no allocation here")
        cores, memory = allocation
        self._cores_used -= cores
        self._alloc_memory -= memory
        if not self._allocations:
            # Re-anchor the float accumulator so incremental updates
            # can never drift away from the exact recomputed sum.
            self._cores_used = 0
            self._alloc_memory = 0.0
        if self._watchers:
            self._notify_delta(-cores)

    def effective_runtime(self, task: Task) -> float:
        """Service time of the task on this machine's speed.

        Honors checkpoint/restart (C17): only the work past the task's
        last checkpoint must execute, plus the cost of writing the
        checkpoints that fall inside it.
        """
        return task.checkpoint_adjusted_work() / self.spec.speed

    # ------------------------------------------------------------------
    # Remote-memory reservations (scavenging, [118])
    # ------------------------------------------------------------------
    def reserve_memory(self, key: str, amount: float) -> None:
        """Lend ``amount`` GiB to a remote borrower under ``key``."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if key in self._memory_reservations:
            raise RuntimeError(f"reservation {key!r} already exists")
        if amount > self.memory_free + 1e-12:
            raise RuntimeError(
                f"machine {self.name} cannot lend {amount} GiB")
        self._memory_reservations[key] = amount
        self._reserved_memory += amount
        if self._watchers:
            # Zero core delta: cluster counters are untouched, but
            # capacity watchers must refresh their memory view.
            self._notify_delta(0)

    def release_memory(self, key: str) -> None:
        """Return a lent reservation (idempotent on missing keys)."""
        amount = self._memory_reservations.pop(key, None)
        if amount is not None:
            self._reserved_memory -= amount
            if not self._memory_reservations:
                self._reserved_memory = 0.0
            if self._watchers:
                self._notify_delta(0)

    # ------------------------------------------------------------------
    # Failures (S8 hooks)
    # ------------------------------------------------------------------
    def fail(self) -> list[Task]:
        """Take the machine down; returns (and evicts) the victims."""
        victims = list(self._allocations)
        cores = self._cores_used
        self._allocations.clear()
        self._cores_used = 0
        self._alloc_memory = 0.0
        if victims and self._watchers:
            # Report the evictions as a release before the flip, which
            # then takes all of the emptied machine's cores out of the
            # watchers' free counters.
            self._notify_delta(-cores)
        self.available = False
        return victims

    def repair(self) -> None:
        """Bring the machine back up, empty."""
        self.available = True

    # ------------------------------------------------------------------
    # Power / energy
    # ------------------------------------------------------------------
    def power_watts(self) -> float:
        """Instantaneous power draw under the linear model."""
        if not self._available:
            return 0.0
        spec = self.spec
        return spec.idle_watts + (spec.max_watts - spec.idle_watts) * (
            self._cores_used / spec.cores)

    def account_energy(self, now: float) -> None:
        """Integrate energy since the previous accounting call.

        Call this immediately *before* any utilization change so the
        elapsed interval is charged at the old utilization.
        """
        if now < self._last_energy_time:
            raise ValueError("time moved backwards")
        self.energy_joules += self.power_watts() * (now - self._last_energy_time)
        self._last_energy_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Machine {self.name} {self.spec.kind.value} "
                f"{self._cores_used}/{self.spec.cores} cores>")
