"""Synthetic workload generators with the paper's long-term trends.

Two phenomena from the paper shape these generators:

- *Fragmentation* [39] (§6.5): over long periods, workloads fragment
  into ever-smaller tasks — so :class:`WorkloadGenerator` supports a
  fragmentation trend that shrinks task runtimes while increasing task
  counts, holding total demand roughly constant.
- *Vicissitude* [22] (C3): "how each of these challenges becomes more
  prominent at seemingly arbitrary moments of time" — modeled by
  :class:`VicissitudeMix`, a phase schedule that switches the
  application mix (compute-, data-, latency-bound) over time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .arrivals import ArrivalProcess
from .task import BagOfTasks, Job, Task

__all__ = [
    "TaskProfile",
    "VicissitudePhase",
    "VicissitudeMix",
    "WorkloadGenerator",
]


@dataclass(frozen=True)
class TaskProfile:
    """Statistical description of one application class (C4 heterogeneity).

    ``runtime_mean``/``runtime_sigma`` parameterize a lognormal runtime;
    ``cores_choices`` the rigid core demand; ``memory_mean`` the
    footprint.
    """

    kind: str
    runtime_mean: float
    runtime_sigma: float = 0.5
    cores_choices: tuple[int, ...] = (1,)
    memory_mean: float = 1.0

    def sample(self, rng: random.Random, runtime_scale: float = 1.0) -> Task:
        """Draw one task from the profile."""
        runtime = max(0.01, rng.lognormvariate(0, self.runtime_sigma)
                      * self.runtime_mean * runtime_scale)
        return Task(runtime=runtime,
                    cores=rng.choice(self.cores_choices),
                    memory=max(0.1, rng.gauss(self.memory_mean,
                                              self.memory_mean / 4)),
                    kind=self.kind)


#: Default heterogeneous profiles: web-like, analytics-like, HPC-like.
DEFAULT_PROFILES: tuple[TaskProfile, ...] = (
    TaskProfile("web", runtime_mean=0.5, cores_choices=(1,), memory_mean=0.5),
    TaskProfile("analytics", runtime_mean=30.0, cores_choices=(1, 2, 4),
                memory_mean=4.0),
    TaskProfile("hpc", runtime_mean=120.0, cores_choices=(4, 8, 16),
                memory_mean=8.0),
)


@dataclass(frozen=True)
class VicissitudePhase:
    """One phase of a workload mix: weights over task profiles.

    ``cum_weights`` holds the running sums of ``weights``, computed
    once.  ``random.choices`` builds exactly that list from
    ``weights=`` on every call, so a draw with ``cum_weights=`` is the
    same draw without the rebuild.
    """

    duration: float
    weights: tuple[float, ...]
    cum_weights: tuple[float, ...] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")
        if not self.weights or any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative and non-empty")
        if sum(self.weights) == 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "cum_weights",
                           tuple(accumulate(self.weights)))


class VicissitudeMix:
    """A cyclic schedule of phases, each with its own application mix."""

    def __init__(self, profiles: Sequence[TaskProfile],
                 phases: Sequence[VicissitudePhase]) -> None:
        if not phases:
            raise ValueError("at least one phase is required")
        for phase in phases:
            if len(phase.weights) != len(profiles):
                raise ValueError("phase weights must match profile count")
        self.profiles = tuple(profiles)
        self.phases = tuple(phases)
        self._cycle = sum(p.duration for p in phases)

    def phase_at(self, time: float) -> VicissitudePhase:
        """The phase active at ``time`` (the schedule cycles)."""
        offset = time % self._cycle
        for phase in self.phases:
            if offset < phase.duration:
                return phase
            offset -= phase.duration
        return self.phases[-1]  # pragma: no cover - float edge

    def sample(self, time: float, rng: random.Random,
               runtime_scale: float = 1.0) -> Task:
        """Draw a task according to the mix active at ``time``."""
        phase = self.phase_at(time)
        profile = rng.choices(self.profiles, cum_weights=phase.cum_weights,
                              k=1)[0]
        return profile.sample(rng, runtime_scale)

    @staticmethod
    def steady(profiles: Sequence[TaskProfile] = DEFAULT_PROFILES,
               weights: Sequence[float] | None = None) -> "VicissitudeMix":
        """A degenerate single-phase (non-vicissitudinous) mix."""
        weights = tuple(weights) if weights else tuple([1.0] * len(profiles))
        return VicissitudeMix(profiles,
                              [VicissitudePhase(duration=1.0, weights=weights)])


class WorkloadGenerator:
    """Generates timestamped jobs from an arrival process and a mix.

    Args:
        arrivals: Job arrival process.
        mix: Application mix, possibly phase-switching (vicissitude).
        tasks_per_job: Mean size of each bag-of-tasks (geometric).
        fragmentation: Long-term fragmentation factor f >= 0.  At time
            ``t`` (fraction of horizon), runtimes scale by ``1/(1+f*t)``
            while the expected task count scales by ``1+f*t`` — total
            demand stays constant but tasks get smaller [39].
        rng: Source of randomness.
    """

    def __init__(self, arrivals: ArrivalProcess,
                 mix: VicissitudeMix | None = None,
                 tasks_per_job: float = 5.0,
                 fragmentation: float = 0.0,
                 rng: random.Random | None = None) -> None:
        if tasks_per_job < 1:
            raise ValueError("tasks_per_job must be >= 1")
        if fragmentation < 0:
            raise ValueError("fragmentation must be non-negative")
        self.arrivals = arrivals
        self.mix = mix or VicissitudeMix.steady()
        self.tasks_per_job = tasks_per_job
        self.fragmentation = fragmentation
        self.rng = rng or random.Random(0)

    def _job_size(self, growth: float) -> int:
        """Geometric job size with mean ``tasks_per_job * growth``."""
        mean = self.tasks_per_job * growth
        p = 1.0 / mean
        size = 1
        while self.rng.random() > p:
            size += 1
        return size

    def generate(self, horizon: float) -> list[Job]:
        """All jobs submitted in ``[0, horizon)``, ordered by submit time."""
        jobs: list[Job] = []
        for index, submit in enumerate(self.arrivals.arrival_times(horizon)):
            progress = submit / horizon
            growth = 1.0 + self.fragmentation * progress
            scale = 1.0 / growth
            size = self._job_size(growth)
            tasks = [self.mix.sample(submit, self.rng, runtime_scale=scale)
                     for _ in range(size)]
            jobs.append(BagOfTasks(f"job-{index}", tasks,
                                   user=f"user-{index % 10}",
                                   submit_time=submit))
        return jobs

