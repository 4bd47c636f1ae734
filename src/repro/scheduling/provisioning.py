"""Provisioning: the other half of the dual problem (C7).

"The scheduling process must both allocate resources to individual jobs
... and also provision resources on behalf of the user across
super-distributed ecosystems — this is the *dual problem* of scheduling
in MCS."

A provisioning policy is an autoscaler: it decides how many machines
of a datacenter are *leased* (powered and schedulable) from the
observed demand, and an :class:`~repro.autoscaling.AutoscalingController`
applies and prices the lease.  Policies include the static baseline,
pure on-demand, and the
reserved-plus-on-demand mix of Shen et al. [170], whose cost trade-off
(cheap reserved base load, expensive on-demand burst capacity) the
benchmark experiments reproduce.
"""

from __future__ import annotations

from ..autoscaling.autoscalers import AutoscalerInput

__all__ = [
    "StaticProvisioning",
    "OnDemandProvisioning",
    "ReservedPlusOnDemand",
]


class StaticProvisioning:
    """Always lease a fixed number of machines (the rigid baseline)."""

    name = "static"

    def __init__(self, machines: int) -> None:
        if machines < 0:
            raise ValueError("machines must be non-negative")
        self.machines = machines

    def decide(self, snapshot: AutoscalerInput) -> int:
        """Return the fixed count, clamped to the fleet."""
        return min(self.machines, snapshot.max_machines)


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

    def decide(self, snapshot: AutoscalerInput) -> int:
        """Return enough machines for demand plus headroom."""
        return max(self.min_machines, snapshot.machines_for(
            snapshot.demand_cores * (1.0 + self.headroom)))


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

    def decide(self, snapshot: AutoscalerInput) -> int:
        """Return max(reserved base, demand-driven target)."""
        needed = snapshot.machines_for(
            snapshot.demand_cores * (1.0 + self.headroom))
        return min(max(self.reserved, needed), snapshot.max_machines)
