"""Unit tests for racks, clusters, and the datacenter execution engine."""

import pytest

from repro.datacenter import (
    Datacenter,
    Machine,
    MachineKind,
    MachineSpec,
    Rack,
    heterogeneous_cluster,
    homogeneous_cluster,
)
from repro.sim import Simulator
from repro.workload import Task, TaskState


def test_homogeneous_cluster_layout():
    cluster = homogeneous_cluster("c", n_machines=20, machines_per_rack=8)
    assert len(cluster) == 20
    assert len(cluster.racks) == 3
    assert cluster.total_cores == 20 * MachineSpec().cores


def test_homogeneous_cluster_validation():
    with pytest.raises(ValueError):
        homogeneous_cluster("c", n_machines=0)
    with pytest.raises(ValueError):
        homogeneous_cluster("c", n_machines=2, machines_per_rack=0)


def test_heterogeneous_cluster_has_mixed_kinds():
    cluster = heterogeneous_cluster("h", n_cpu=4, n_gpu=2, n_fpga=1)
    kinds = {m.spec.kind for m in cluster.machines()}
    assert kinds == {MachineKind.CPU, MachineKind.GPU, MachineKind.FPGA}
    assert len(cluster) == 7


def test_cluster_utilization():
    cluster = homogeneous_cluster("c", n_machines=2,
                                  spec=MachineSpec(cores=4))
    machine = cluster.machines()[0]
    machine.allocate(Task(1.0, cores=4))
    assert cluster.utilization() == pytest.approx(0.5)
    assert cluster.available_cores == 4


def test_rack_totals():
    rack = Rack("r", [Machine("a", MachineSpec(cores=2)),
                      Machine("b", MachineSpec(cores=6))])
    assert rack.total_cores == 8
    assert len(rack) == 2


def test_datacenter_requires_clusters():
    with pytest.raises(ValueError):
        Datacenter(Simulator(), [])


def test_datacenter_rejects_repeated_machine_names():
    # The capacity index finds a machine's row by its name, at build
    # time and when the topology grows.
    with pytest.raises(ValueError, match="'c-m0' is used twice"):
        Datacenter(Simulator(), [homogeneous_cluster("c", 2),
                                 homogeneous_cluster("c", 2)])
    dc = Datacenter(Simulator(), [homogeneous_cluster("c", 2)])
    dc.clusters[0].racks[0].add(Machine("c-m1", MachineSpec()))
    with pytest.raises(ValueError, match="'c-m1' is used twice"):
        dc.machines()


def test_datacenter_executes_task():
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster("c", 1,
                                              MachineSpec(cores=4))])
    machine = dc.machines()[0]
    task = Task(runtime=10.0, cores=2)
    process = dc.execute(task, machine)
    result = sim.run(until=process)
    assert result is task
    assert task.state is TaskState.FINISHED
    assert task.finish_time == pytest.approx(10.0)
    assert machine.cores_used == 0
    assert dc.completed_tasks == [task]


def test_datacenter_speed_affects_completion():
    sim = Simulator()
    fast_spec = MachineSpec(cores=4, speed=2.0)
    dc = Datacenter(sim, [homogeneous_cluster("c", 1, fast_spec)])
    task = Task(runtime=10.0)
    sim.run(until=dc.execute(task, dc.machines()[0]))
    assert task.finish_time == pytest.approx(5.0)


def test_datacenter_utilization_tracks_time_average():
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster("c", 1, MachineSpec(cores=4))])
    task = Task(runtime=10.0, cores=4)
    dc.execute(task, dc.machines()[0])
    sim.run(until=20.0)
    # Fully busy for 10 s, idle for 10 s -> mean 0.5.
    assert dc.mean_utilization() == pytest.approx(0.5)
    assert dc.utilization() == 0.0


def test_machine_failure_interrupts_running_task():
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster("c", 1, MachineSpec(cores=4))])
    machine = dc.machines()[0]
    task = Task(runtime=100.0, cores=2)
    dc.execute(task, machine)

    def failer(sim):
        yield sim.timeout(5.0)
        victims = dc.fail_machine(machine)
        assert victims == [task]

    sim.process(failer(sim))
    sim.run()
    assert task.state is TaskState.FAILED
    assert dc.failed_executions == 1
    assert not machine.available
    dc.repair_machine(machine)
    assert machine.available


def test_interrupt_unknown_task_rejected():
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster("c", 1)])
    with pytest.raises(KeyError):
        dc.interrupt_task(Task(1.0))


def test_energy_accounting_through_execution():
    sim = Simulator()
    spec = MachineSpec(cores=4, idle_watts=100.0, max_watts=300.0)
    dc = Datacenter(sim, [homogeneous_cluster("c", 1, spec)])
    task = Task(runtime=10.0, cores=4)
    dc.execute(task, dc.machines()[0])
    sim.run(until=10.0)
    # 10 s at 300 W.
    assert dc.total_energy_joules() == pytest.approx(3000.0)


def test_datacenter_as_ecosystem_qualifies():
    sim = Simulator()
    dc = Datacenter(sim, [heterogeneous_cluster("h", n_cpu=2, n_gpu=1)])
    eco = dc.as_ecosystem()
    assert eco.is_ecosystem(), eco.disqualifications()
    assert eco.is_super_distributed()
    assert eco.distribution_depth() == 3
