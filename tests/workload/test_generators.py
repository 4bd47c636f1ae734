"""Unit tests for workload generators, vicissitude, and fragmentation."""

import random

import pytest

from repro.workload import (
    DEFAULT_PROFILES,
    PoissonArrivals,
    TaskProfile,
    VicissitudeMix,
    VicissitudePhase,
    WorkloadGenerator,
)


def test_profile_sampling_respects_choices():
    profile = TaskProfile("x", runtime_mean=10.0, cores_choices=(2, 4))
    rng = random.Random(0)
    for _ in range(20):
        task = profile.sample(rng)
        assert task.cores in (2, 4)
        assert task.runtime > 0
        assert task.kind == "x"


def test_phase_validation():
    with pytest.raises(ValueError):
        VicissitudePhase(duration=0.0, weights=(1.0,))
    with pytest.raises(ValueError):
        VicissitudePhase(duration=1.0, weights=())
    with pytest.raises(ValueError):
        VicissitudePhase(duration=1.0, weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        VicissitudePhase(duration=1.0, weights=(-1.0, 2.0))


def test_mix_weight_arity_checked():
    with pytest.raises(ValueError):
        VicissitudeMix(DEFAULT_PROFILES,
                       [VicissitudePhase(1.0, (1.0,))])  # 3 profiles, 1 weight


def test_mix_requires_phases():
    with pytest.raises(ValueError):
        VicissitudeMix(DEFAULT_PROFILES, [])


def test_phase_schedule_cycles():
    profiles = (TaskProfile("a", 1.0), TaskProfile("b", 1.0))
    mix = VicissitudeMix(profiles, [
        VicissitudePhase(10.0, (1.0, 0.0)),
        VicissitudePhase(5.0, (0.0, 1.0)),
    ])
    assert mix.phase_at(3.0).weights == (1.0, 0.0)
    assert mix.phase_at(12.0).weights == (0.0, 1.0)
    assert mix.phase_at(18.0).weights == (1.0, 0.0)  # wrapped around


def test_vicissitude_switches_application_kinds():
    profiles = (TaskProfile("compute", 1.0), TaskProfile("data", 1.0))
    mix = VicissitudeMix(profiles, [
        VicissitudePhase(100.0, (1.0, 0.0)),
        VicissitudePhase(100.0, (0.0, 1.0)),
    ])
    rng = random.Random(1)
    early = {mix.sample(10.0, rng).kind for _ in range(10)}
    late = {mix.sample(150.0, rng).kind for _ in range(10)}
    assert early == {"compute"}
    assert late == {"data"}


def test_generator_validation():
    arrivals = PoissonArrivals(1.0)
    with pytest.raises(ValueError):
        WorkloadGenerator(arrivals, tasks_per_job=0.5)
    with pytest.raises(ValueError):
        WorkloadGenerator(arrivals, fragmentation=-1.0)


def test_generator_produces_time_ordered_jobs():
    generator = WorkloadGenerator(
        PoissonArrivals(0.5, rng=random.Random(1)),
        rng=random.Random(2))
    jobs = generator.generate(horizon=200.0)
    assert jobs
    submits = [j.submit_time for j in jobs]
    assert submits == sorted(submits)
    assert all(len(j) >= 1 for j in jobs)


def test_fragmentation_shrinks_tasks_over_time():
    """Paper [39]: tasks fragment into smaller units over long periods."""
    generator = WorkloadGenerator(
        PoissonArrivals(0.5, rng=random.Random(3)),
        mix=VicissitudeMix.steady((TaskProfile("g", 100.0, 0.1),)),
        tasks_per_job=4.0,
        fragmentation=4.0,
        rng=random.Random(4))
    horizon = 2000.0
    jobs = generator.generate(horizon)
    early = [t.runtime for j in jobs if j.submit_time < horizon * 0.2
             for t in j]
    late = [t.runtime for j in jobs if j.submit_time > horizon * 0.8
            for t in j]
    assert sum(early) / len(early) > 1.8 * (sum(late) / len(late))
    early_sizes = [len(j) for j in jobs if j.submit_time < horizon * 0.2]
    late_sizes = [len(j) for j in jobs if j.submit_time > horizon * 0.8]
    assert (sum(late_sizes) / len(late_sizes)
            > sum(early_sizes) / len(early_sizes))


def test_generator_determinism():
    def build():
        return WorkloadGenerator(
            PoissonArrivals(0.5, rng=random.Random(9)),
            rng=random.Random(10)).generate(100.0)

    a, b = build(), build()
    assert [len(j) for j in a] == [len(j) for j in b]
    assert [j.submit_time for j in a] == [j.submit_time for j in b]
