"""Breaker and deadline guards on federation offloads."""

import pytest

from repro.datacenter import (
    Datacenter,
    Federation,
    MachineSpec,
    homogeneous_cluster,
)
from repro.resilience import BreakerState, CircuitBreaker
from repro.sim import Simulator
from repro.workload import Task, TaskState


class TestGuardedFederation:
    def build(self, policy, **kwargs):
        sim = Simulator()
        home = Datacenter(sim, [homogeneous_cluster(
            "h", 1, MachineSpec(cores=2))], name="home")
        peer = Datacenter(sim, [homogeneous_cluster(
            "p", 1, MachineSpec(cores=2))], name="peer")
        fed = Federation(sim, [home, peer],
                         latency={("home", "peer"): 1.0},
                         policy=policy, **kwargs)
        return sim, home, peer, fed

    def test_validation(self):
        sim = Simulator()
        home = Datacenter(sim, [homogeneous_cluster("h", 1)], name="home")
        with pytest.raises(ValueError):
            Federation(sim, [home], offload_deadline=0.0)
        with pytest.raises(ValueError):
            Federation(sim, [home], peer_breakers={"ghost": object()})

    def test_open_breaker_vetoes_offload(self):
        # An always-offload policy with an open peer breaker: the task
        # must run at home anyway.
        def always_peer(home, peers, task):
            return peers[0]

        sim, home, peer, fed = self.build(always_peer)
        breaker = CircuitBreaker(sim, failure_threshold=1,
                                 recovery_timeout=1000.0)
        fed.peer_breakers["peer"] = breaker
        breaker.record_failure()
        task = Task(runtime=10.0, cores=2)
        fed.submit(task, "home")
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.machine == "h-m0"
        assert fed.offloads_rejected == 1
        assert fed.offloaded_tasks == 0

    def test_remote_success_feeds_breaker(self):
        def always_peer(home, peers, task):
            return peers[0]

        sim, home, peer, fed = self.build(always_peer)
        breaker = CircuitBreaker(sim, failure_threshold=1)
        fed.peer_breakers["peer"] = breaker
        task = Task(runtime=10.0, cores=2)
        fed.submit(task, "home")
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.machine == "p-m0"
        assert breaker.state is BreakerState.CLOSED
        assert fed.offloaded_tasks == 1

    def test_deadline_recalls_stuck_offload(self):
        def always_peer(home, peers, task):
            return peers[0]

        sim, home, peer, fed = self.build(always_peer,
                                          offload_deadline=5.0)
        breaker = CircuitBreaker(sim, failure_threshold=1,
                                 recovery_timeout=1000.0)
        fed.peer_breakers["peer"] = breaker
        # Saturate the peer so the delegated task cannot start there.
        blocker = Task(runtime=1000.0, cores=2, name="blocker")
        peer.execute(blocker, peer.machines()[0])
        task = Task(runtime=10.0, cores=2)
        fed.submit(task, "home")
        sim.run(until=50.0)
        assert task.state is TaskState.FINISHED
        assert task.machine == "h-m0"
        assert fed.offload_fallbacks == 1
        assert breaker.state is BreakerState.OPEN
