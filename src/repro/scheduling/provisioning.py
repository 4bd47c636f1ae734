"""Provisioning: the other half of the dual problem (C7).

"The scheduling process must both allocate resources to individual jobs
... and also provision resources on behalf of the user across
super-distributed ecosystems — this is the *dual problem* of scheduling
in MCS."

A :class:`Provisioner` periodically sets how many machines of a
datacenter are *leased* (powered and schedulable); a
:class:`ProvisioningPolicy` decides the target count from the observed
demand.  Policies include the static baseline, pure on-demand, and the
reserved-plus-on-demand mix of Shen et al. [170], whose cost trade-off
(cheap reserved base load, expensive on-demand burst capacity) the
benchmark experiments reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from ..datacenter.datacenter import Datacenter
from ..sim import Simulator, TimeWeightedMonitor
from .scheduler import ClusterScheduler

__all__ = [
    "ProvisioningState",
    "ProvisioningPolicy",
    "StaticProvisioning",
    "OnDemandProvisioning",
    "ReservedPlusOnDemand",
    "Provisioner",
]


@dataclass(frozen=True)
class ProvisioningState:
    """Demand snapshot handed to provisioning policies."""

    time: float
    queued_tasks: int
    queued_cores: int
    running_cores: int
    leased_machines: int
    total_machines: int
    cores_per_machine: int


class ProvisioningPolicy(Protocol):
    """Decides the target number of leased machines."""

    name: str

    def target_machines(self, state: ProvisioningState) -> int:
        """Desired lease count given the current demand snapshot."""
        ...  # pragma: no cover


class StaticProvisioning:
    """Always lease a fixed number of machines (the rigid baseline)."""

    name = "static"

    def __init__(self, machines: int) -> None:
        if machines < 0:
            raise ValueError("machines must be non-negative")
        self.machines = machines

    def target_machines(self, state: ProvisioningState) -> int:
        """Return the fixed count, clamped to the fleet."""
        return min(self.machines, state.total_machines)


class OnDemandProvisioning:
    """Lease just enough machines for current demand, plus headroom.

    Target = ceil((queued + running cores) x (1 + headroom) / machine
    cores), clamped to [min_machines, total].
    """

    name = "on-demand"

    def __init__(self, min_machines: int = 1, headroom: float = 0.1) -> None:
        if min_machines < 0:
            raise ValueError("min_machines must be non-negative")
        if headroom < 0:
            raise ValueError("headroom must be non-negative")
        self.min_machines = min_machines
        self.headroom = headroom

    def target_machines(self, state: ProvisioningState) -> int:
        """Return enough machines for demand plus headroom."""
        demand_cores = (state.queued_cores + state.running_cores)
        needed = math.ceil(demand_cores * (1.0 + self.headroom)
                           / max(1, state.cores_per_machine))
        return max(self.min_machines, min(needed, state.total_machines))


class ReservedPlusOnDemand:
    """A reserved base plus on-demand burst capacity ([170]).

    ``reserved`` machines are always leased (cheap, committed);
    additional machines are leased on demand when queued work exceeds
    what the reserved base can absorb.
    """

    name = "reserved+on-demand"

    def __init__(self, reserved: int, headroom: float = 0.0) -> None:
        if reserved < 0:
            raise ValueError("reserved must be non-negative")
        if headroom < 0:
            raise ValueError("headroom must be non-negative")
        self.reserved = reserved
        self.headroom = headroom

    def target_machines(self, state: ProvisioningState) -> int:
        """Return max(reserved base, demand-driven target)."""
        demand_cores = (state.queued_cores + state.running_cores)
        needed = math.ceil(demand_cores * (1.0 + self.headroom)
                           / max(1, state.cores_per_machine))
        return min(max(self.reserved, needed), state.total_machines)


class Provisioner:
    """Periodically re-provisions a datacenter for its scheduler.

    Machines beyond the leased target are released (only when idle);
    machines below it are leased back.  Cost is integrated over time at
    each leased machine's ``cost_per_hour``; the on-demand premium
    multiplies the price of machines above the ``reserved_machines``
    mark, reproducing the reserved/on-demand price gap of [170].
    """

    def __init__(self, sim: Simulator, datacenter: Datacenter,
                 scheduler: ClusterScheduler, policy: ProvisioningPolicy,
                 interval: float = 10.0,
                 reserved_machines: int = 0,
                 on_demand_premium: float = 2.5) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if on_demand_premium < 1.0:
            raise ValueError("on_demand_premium must be >= 1.0")
        self.sim = sim
        self.datacenter = datacenter
        self.scheduler = scheduler
        self.policy = policy
        self.interval = interval
        self.reserved_machines = reserved_machines
        self.on_demand_premium = on_demand_premium
        fleet = len(datacenter.capacity.machines())
        self.leased = TimeWeightedMonitor("leased_machines",
                                          initial=fleet,
                                          start_time=sim.now)
        self._cost_rate = TimeWeightedMonitor(
            "cost_rate", initial=self._rate(fleet), start_time=sim.now)
        self._stopped = False
        sim.process(self._run(), name="provisioner-loop")

    def _rate(self, leased_count: int) -> float:
        """Dollars per hour for ``leased_count`` leased machines."""
        rate = 0.0
        machines = self.datacenter.capacity.machines()
        for index, machine in enumerate(machines[:leased_count]):
            price = machine.spec.cost_per_hour
            if index >= self.reserved_machines:
                price *= self.on_demand_premium
            rate += price
        return rate

    def _snapshot(self) -> ProvisioningState:
        queued = self.scheduler.queue
        capacity = self.datacenter.capacity
        machines = capacity.machines()
        return ProvisioningState(
            time=self.sim.now,
            queued_tasks=len(queued),
            queued_cores=queued.cores,
            running_cores=capacity.used_cores_total(),
            leased_machines=capacity.available_count(),
            total_machines=len(machines),
            cores_per_machine=machines[0].spec.cores if machines else 1,
        )

    def _run(self):
        while not self._stopped:
            target = self.policy.target_machines(self._snapshot())
            # Idle machines are released from the expensive end.
            count = self.datacenter.scale_to(target)
            self.leased.update(self.sim.now, count)
            self._cost_rate.update(self.sim.now, self._rate(count))
            yield self.sim.timeout(self.interval)

    def stop(self) -> None:
        """Stop the provisioning loop at the next tick."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def total_cost(self) -> float:
        """Accumulated lease cost in dollars up to the current sim time."""
        hours = 1.0 / 3600.0
        return self._cost_rate.time_average(
            until=self.sim.now) * self.sim.now * hours

    def mean_leased(self) -> float:
        """Time-weighted mean number of leased machines."""
        return self.leased.time_average(until=self.sim.now)
