"""Memory scavenging across machines (C7; Uta et al. [118]).

"Memory scavenging is a method applied to reduce compute resource
consumption ... By using small portions of available memory from other
tenants or nodes, a relative small performance overhead can be traded
for significant gains in resource consumption."

The :class:`ScavengingCoordinator` places tasks whose memory demand
exceeds any single machine's free memory by *borrowing* idle memory
from lender machines in the same cluster: the task runs on a host that
has the cores, its memory overflow is reserved on lenders, and its
runtime is inflated by a per-remote-fraction penalty.  The E8 ablation
shows the paper's trade-off: more work placed, modest slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload.task import Task
from .datacenter import Datacenter, _Execution
from .machine import Machine

__all__ = ["ScavengingCoordinator", "BorrowRecord"]


@dataclass
class BorrowRecord:
    """One active memory borrow: who lends how much to which task."""

    task: Task
    host: Machine
    lenders: dict[str, float]
    penalty_factor: float


class ScavengingCoordinator:
    """Places memory-overflowing tasks by borrowing remote memory.

    Args:
        datacenter: The substrate.
        penalty_per_remote_fraction: Runtime inflation per unit of the
            task's memory that is remote; borrowing 50% of the
            footprint with penalty 0.3 inflates runtime by 15%.
        max_remote_fraction: Refuse placements needing more than this
            fraction of the footprint remotely.
    """

    def __init__(self, datacenter: Datacenter,
                 penalty_per_remote_fraction: float = 0.3,
                 max_remote_fraction: float = 0.75) -> None:
        if penalty_per_remote_fraction < 0:
            raise ValueError("penalty must be non-negative")
        if not 0.0 < max_remote_fraction <= 1.0:
            raise ValueError("max_remote_fraction must be in (0, 1]")
        self.datacenter = datacenter
        self.penalty_per_remote_fraction = penalty_per_remote_fraction
        self.max_remote_fraction = max_remote_fraction
        self.active: list[BorrowRecord] = []
        #: Completed scavenged placements, for the ablation report.
        self.total_scavenged = 0
        self.total_borrowed_gb = 0.0

    def try_place(self, task: Task) -> _Execution | None:
        """Place ``task``, scavenging memory if needed.

        Returns the execution event, or ``None`` when neither a
        direct nor a scavenged placement is possible right now.
        """
        machines = self.datacenter.available_machines()
        # Prefer a direct fit — scavenging is the fallback.
        for machine in machines:
            if machine.can_fit(task):
                return self.datacenter.execute(task, machine)
        return self._place_scavenged(task, machines)

    def _place_scavenged(self, task: Task,
                         machines: list[Machine]) -> _Execution | None:
        hosts = [m for m in machines
                 if task.cores <= m.cores_free and m.memory_free > 0]
        hosts.sort(key=lambda m: -m.memory_free)
        for host in hosts:
            local = min(task.memory, host.memory_free)
            needed_remote = task.memory - local
            if needed_remote <= 0:
                continue  # would have fit directly
            if needed_remote / task.memory > self.max_remote_fraction:
                continue
            lenders = self._find_lenders(host, machines, needed_remote)
            if lenders is None:
                continue
            return self._execute_borrowed(task, host, local, lenders)
        return None

    def _find_lenders(self, host: Machine, machines: list[Machine],
                      needed: float) -> dict[str, float] | None:
        lenders: dict[str, float] = {}
        for lender in sorted((m for m in machines if m is not host),
                             key=lambda m: -m.memory_free):
            if needed <= 1e-9:
                break
            grab = min(lender.memory_free, needed)
            if grab > 0:
                lenders[lender.name] = grab
                needed -= grab
        if needed > 1e-9:
            return None
        return lenders

    def _execute_borrowed(self, task: Task, host: Machine, local: float,
                          lenders: dict[str, float]) -> _Execution:
        remote = task.memory - local
        remote_fraction = remote / task.memory
        penalty = 1.0 + self.penalty_per_remote_fraction * remote_fraction
        by_name = {m.name: m for m in self.datacenter.machines()}
        for name, amount in lenders.items():
            by_name[name].reserve_memory(f"scavenge-{task.task_id}", amount)
        # Shrink the task's local footprint for host book-keeping and
        # stretch its runtime by the remote-access penalty.
        original_memory = task.memory
        original_runtime = task.runtime
        task.memory = local
        task.runtime = original_runtime * penalty
        record = BorrowRecord(task=task, host=host, lenders=dict(lenders),
                              penalty_factor=penalty)
        self.active.append(record)
        self.total_scavenged += 1
        self.total_borrowed_gb += remote
        execution = self.datacenter.execute(task, host)

        def release(event, record=record, memory=original_memory,
                    runtime=original_runtime):
            for name, _ in record.lenders.items():
                by_name[name].release_memory(
                    f"scavenge-{record.task.task_id}")
            record.task.memory = memory
            record.task.runtime = runtime
            if record in self.active:
                self.active.remove(record)

        execution.add_callback(release)
        return execution
