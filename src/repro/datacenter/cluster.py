"""Racks and clusters: the physical topology of a datacenter.

The paper (C2) sizes the largest datacenters at "hundreds of thousands
of compute servers, and tens of thousands of switches"; the topology
here — machines in racks in clusters — is the standard multi-cluster
model of IaaS datacenters (§6.1) and matches the OpenDC topology model.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .machine import Machine, MachineKind, MachineSpec

__all__ = ["Rack", "Cluster", "homogeneous_cluster", "heterogeneous_cluster"]

#: Process-wide count of topology mutations (racks built or extended).
#: CapacityIndex reads it as a module attribute to make its staleness
#: probe O(1): an unchanged version proves no machine was mounted
#: anywhere, so the per-rack recount can be skipped entirely.
_TOPOLOGY_VERSION = 0


def _bump_topology() -> None:
    global _TOPOLOGY_VERSION
    _TOPOLOGY_VERSION += 1


class Rack:
    """A rack of machines sharing a top-of-rack switch."""

    def __init__(self, name: str, machines: Sequence[Machine] = ()) -> None:
        self.name = name
        self.machines: list[Machine] = list(machines)
        _bump_topology()

    def add(self, machine: Machine) -> Machine:
        """Mount a machine in this rack."""
        self.machines.append(machine)
        _bump_topology()
        return machine

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines)

    def __len__(self) -> int:
        return len(self.machines)

    @property
    def total_cores(self) -> int:
        """Sum of core counts across mounted machines."""
        return sum(m.spec.cores for m in self.machines)


class Cluster:
    """A named group of racks, typically one scheduling domain."""

    def __init__(self, name: str, racks: Sequence[Rack] = ()) -> None:
        self.name = name
        self.racks: list[Rack] = list(racks)
        _bump_topology()

    def add_rack(self, rack: Rack) -> Rack:
        """Add a rack to the cluster."""
        self.racks.append(rack)
        _bump_topology()
        return rack

    def machines(self) -> list[Machine]:
        """All machines in rack order."""
        return [machine for rack in self.racks for machine in rack]

    def __len__(self) -> int:
        return sum(len(rack) for rack in self.racks)

    @property
    def total_cores(self) -> int:
        """Total cores in the cluster."""
        return sum(rack.total_cores for rack in self.racks)

    @property
    def available_cores(self) -> int:
        """Currently free cores across available machines."""
        return sum(m.cores_free for m in self.machines())

    def utilization(self) -> float:
        """Aggregate core utilization in [0, 1]."""
        total = self.total_cores
        if total == 0:
            return 0.0
        return sum(m.cores_used for m in self.machines()) / total


def homogeneous_cluster(name: str, n_machines: int,
                        spec: MachineSpec = MachineSpec(),
                        machines_per_rack: int = 16) -> Cluster:
    """A cluster of identical machines — the cloud-core baseline (§1)."""
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    if machines_per_rack < 1:
        raise ValueError("machines_per_rack must be >= 1")
    cluster = Cluster(name)
    rack: Rack | None = None
    for i in range(n_machines):
        if i % machines_per_rack == 0:
            rack = cluster.add_rack(Rack(f"{name}-rack-{i // machines_per_rack}"))
        assert rack is not None
        rack.add(Machine(f"{name}-m{i}", spec))
    return cluster


def heterogeneous_cluster(name: str, n_cpu: int = 12, n_gpu: int = 3,
                          n_fpga: int = 1,
                          machines_per_rack: int = 8) -> Cluster:
    """A mixed CPU/GPU/FPGA cluster exhibiting C4's extreme heterogeneity."""
    cluster = Cluster(name)
    specs = (
        [MachineSpec(cores=16, memory=64.0, speed=1.0,
                     kind=MachineKind.CPU)] * n_cpu
        + [MachineSpec(cores=8, memory=32.0, speed=4.0,
                       kind=MachineKind.GPU, idle_watts=150.0,
                       max_watts=500.0, cost_per_hour=4.0)] * n_gpu
        + [MachineSpec(cores=4, memory=16.0, speed=2.0,
                       kind=MachineKind.FPGA, idle_watts=40.0,
                       max_watts=120.0, cost_per_hour=2.0)] * n_fpga
    )
    rack: Rack | None = None
    for i, spec in enumerate(specs):
        if i % machines_per_rack == 0:
            rack = cluster.add_rack(Rack(f"{name}-rack-{i // machines_per_rack}"))
        assert rack is not None
        rack.add(Machine(f"{name}-{spec.kind.value}{i}", spec))
    return cluster
