"""Unit tests for self-awareness: the adaptation taxonomy and recovery."""

import importlib

import pytest

from repro.datacenter import Datacenter, MachineSpec, homogeneous_cluster
from repro.failures import FailureEvent, FailureInjector
from repro.scheduling import ClusterScheduler
from repro.selfaware import (
    APPLICABILITY,
    APPROACH_IMPLEMENTATIONS,
    AdaptationApproach,
    AdaptationProblem,
    RecoveryPlanner,
    approaches_for,
    problems_addressed_by,
)
from repro.sim import Simulator
from repro.workload import Task, TaskState


class TestAdaptationTaxonomy:
    def test_ten_problems_seven_approaches(self):
        assert len(AdaptationProblem) == 10
        assert len(AdaptationApproach) == 7

    def test_every_problem_has_approaches(self):
        for problem in AdaptationProblem:
            assert approaches_for(problem)

    def test_every_approach_has_implementation_pointer(self):
        for approach in AdaptationApproach:
            assert approach in APPROACH_IMPLEMENTATIONS

    def test_implementation_pointers_resolve(self):
        """Each pointer names a module, or a module and one of its
        attributes; a pointer at code that does not exist fails."""
        for target in APPROACH_IMPLEMENTATIONS.values():
            try:
                importlib.import_module(target)
            except ModuleNotFoundError:
                module_name, _, attribute = target.rpartition(".")
                module = importlib.import_module(module_name)
                assert hasattr(module, attribute), target

    def test_portfolio_applies_to_autoscaling(self):
        problems = problems_addressed_by(
            AdaptationApproach.PORTFOLIO_SCHEDULING)
        assert AdaptationProblem.AUTOSCALING in problems

    def test_applicability_covers_all_problems(self):
        assert set(APPLICABILITY) == set(AdaptationProblem)


class TestRecoveryPlanner:
    def test_validation(self):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster("c", 1)])
        scheduler = ClusterScheduler(sim, dc)
        with pytest.raises(ValueError):
            RecoveryPlanner(scheduler, max_retries=-1)

    def test_failed_task_recovers_after_repair(self):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster(
            "c", 1, MachineSpec(cores=4, memory=1e9))])
        scheduler = ClusterScheduler(sim, dc)
        planner = RecoveryPlanner(scheduler, max_retries=3)
        FailureInjector(sim, dc, [FailureEvent(5.0, ("c-m0",), 10.0)])
        task = Task(runtime=20.0, cores=4)
        scheduler.submit(task)
        sim.run(until=100.0)
        assert task.state is TaskState.FINISHED
        assert planner.total_retries >= 1
        assert task in planner.recovered
        assert not planner.abandoned
