"""Scientific workflows as DAGs of tasks (paper §6.2, [114]).

The paper names the classic workflow families — Montage (astronomy
mosaics, fan-out/fan-in), LIGO Inspiral (gravitational-wave pipelines),
Epigenomics (sequencing pipelines), and BLAST (bag-of-task-like search)
— as the shareable workloads of e-Science.  The shape generators here
follow the structural characterizations of Bharathi et al. [114]:
the absolute runtimes are synthetic, but the DAG topology, fan-in and
fan-out degrees, and level structure match the published ones.
"""

from __future__ import annotations

import random
from typing import Iterator

from .task import Job, Task

__all__ = [
    "Workflow",
    "montage_workflow",
    "random_workflow",
    "chain_workflow",
    "fork_join_workflow",
]


class Workflow(Job):
    """A job whose tasks form a directed acyclic graph."""

    def __init__(self, name: str, user: str = "anonymous",
                 submit_time: float = 0.0) -> None:
        super().__init__(name, user=user, submit_time=submit_time)
        #: The tasks :meth:`add` has added, for dependency checks.
        self._members: set[Task] = set()

    def add(self, task: Task) -> Task:
        """Add a task, aligning its submit time to the workflow's."""
        self._members.add(task)
        return super().add(task)

    def add_task(self, task: Task,
                 dependencies: list[Task] | tuple[Task, ...] = ()) -> Task:
        """Add ``task`` depending on previously added ``dependencies``."""
        members = self._members
        for dep in dependencies:
            if dep not in members:
                raise ValueError(
                    f"dependency {dep.name!r} is not part of workflow {self.name!r}")
            task.add_dependency(dep)
        return self.add(task)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if the dependency graph has a cycle."""
        # Kahn's algorithm over the internal tasks.
        indegree = {task: 0 for task in self.tasks}
        dependents: dict[Task, list[Task]] = {task: [] for task in self.tasks}
        for task in self.tasks:
            for dep in task.dependencies:
                if dep in indegree:
                    indegree[task] += 1
                    dependents[dep].append(task)
        frontier = [t for t, d in indegree.items() if d == 0]
        visited = 0
        while frontier:
            current = frontier.pop()
            visited += 1
            for child in dependents[current]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if visited != len(self.tasks):
            raise ValueError(f"workflow {self.name!r} contains a cycle")

    def entry_tasks(self) -> list[Task]:
        """Tasks with no dependencies inside the workflow."""
        internal = set(self.tasks)
        return [t for t in self.tasks
                if not any(d in internal for d in t.dependencies)]

    def exit_tasks(self) -> list[Task]:
        """Tasks no other workflow task depends on."""
        depended_on = {d for t in self.tasks for d in t.dependencies}
        return [t for t in self.tasks if t not in depended_on]

    def levels(self) -> list[list[Task]]:
        """Topological levels: level i tasks depend only on levels < i."""
        self.validate()
        internal = set(self.tasks)
        level_of: dict[Task, int] = {}
        remaining = list(self.tasks)
        while remaining:
            progressed = False
            for task in list(remaining):
                deps = [d for d in task.dependencies if d in internal]
                if all(d in level_of for d in deps):
                    level_of[task] = 1 + max(
                        (level_of[d] for d in deps), default=-1)
                    remaining.remove(task)
                    progressed = True
            if not progressed:  # pragma: no cover - guarded by validate()
                raise ValueError("cycle detected while leveling")
        depth = max(level_of.values(), default=-1) + 1
        levels: list[list[Task]] = [[] for _ in range(depth)]
        for task in self.tasks:
            levels[level_of[task]].append(task)
        return levels

    @property
    def depth(self) -> int:
        """Number of topological levels."""
        return len(self.levels())

    def critical_path_length(self) -> float:
        """Sum of runtimes along the longest dependency chain.

        This lower-bounds the makespan on unlimited resources, the
        standard workflow-scheduling baseline.
        """
        self.validate()
        internal = set(self.tasks)
        longest: dict[Task, float] = {}

        def visit(task: Task) -> float:
            if task in longest:
                return longest[task]
            deps = [d for d in task.dependencies if d in internal]
            longest[task] = task.runtime + max(
                (visit(d) for d in deps), default=0.0)
            return longest[task]

        return max((visit(t) for t in self.tasks), default=0.0)

    def walk_topological(self) -> Iterator[Task]:
        """Iterate tasks in a valid execution order."""
        for level in self.levels():
            yield from level


# ---------------------------------------------------------------------------
# Workflow shape generators (Bharathi et al. characterizations [114])
# ---------------------------------------------------------------------------
def _runtime(rng: random.Random, mean: float) -> float:
    """Lognormal-ish positive runtime with the given mean."""
    return max(0.1, rng.lognormvariate(0, 0.5) * mean)


def montage_workflow(width: int = 8, rng: random.Random | None = None,
                     mean_runtime: float = 10.0,
                     submit_time: float = 0.0) -> Workflow:
    """Montage-like mosaic workflow: fan-out, pairwise overlap, fan-in.

    Structure (per [114]): ``width`` parallel mProjectPP tasks, mDiffFit
    tasks joining neighbouring projections, a concentrating mConcatFit,
    a mBgModel/mBackground re-fan-out, and a final mAdd fan-in.
    """
    if width < 2:
        raise ValueError("montage width must be >= 2")
    rng = rng or random.Random(0)
    wf = Workflow("montage", submit_time=submit_time)
    projects = [wf.add_task(Task(_runtime(rng, mean_runtime),
                                 name=f"mProjectPP-{i}", kind="montage"))
                for i in range(width)]
    diffs = [wf.add_task(Task(_runtime(rng, mean_runtime / 2),
                              name=f"mDiffFit-{i}", kind="montage"),
                         dependencies=[projects[i], projects[i + 1]])
             for i in range(width - 1)]
    concat = wf.add_task(Task(_runtime(rng, mean_runtime),
                              name="mConcatFit", kind="montage"),
                         dependencies=diffs)
    backgrounds = [wf.add_task(Task(_runtime(rng, mean_runtime / 2),
                                    name=f"mBackground-{i}", kind="montage"),
                               dependencies=[concat])
                   for i in range(width)]
    wf.add_task(Task(_runtime(rng, mean_runtime * 2), name="mAdd",
                     kind="montage"), dependencies=backgrounds)
    wf.validate()
    return wf


def chain_workflow(length: int = 5, runtime: float = 10.0,
                   submit_time: float = 0.0) -> Workflow:
    """A simple linear pipeline; critical path == total work."""
    if length < 1:
        raise ValueError("length must be >= 1")
    wf = Workflow("chain", submit_time=submit_time)
    previous: Task | None = None
    for i in range(length):
        deps = [previous] if previous is not None else []
        previous = wf.add_task(Task(runtime, name=f"stage-{i}", kind="chain"),
                               dependencies=deps)
    return wf


def fork_join_workflow(width: int = 8, runtime: float = 10.0,
                       submit_time: float = 0.0) -> Workflow:
    """Fork-join: one source, ``width`` parallel tasks, one sink."""
    if width < 1:
        raise ValueError("width must be >= 1")
    wf = Workflow("fork-join", submit_time=submit_time)
    source = wf.add_task(Task(runtime, name="fork", kind="fork-join"))
    middles = [wf.add_task(Task(runtime, name=f"work-{i}", kind="fork-join"),
                           dependencies=[source])
               for i in range(width)]
    wf.add_task(Task(runtime, name="join", kind="fork-join"),
                dependencies=middles)
    return wf


def random_workflow(n_tasks: int = 20, edge_probability: float = 0.2,
                    rng: random.Random | None = None,
                    mean_runtime: float = 10.0,
                    submit_time: float = 0.0) -> Workflow:
    """A random layered DAG (edges only point forward, hence acyclic)."""
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = rng or random.Random(0)
    wf = Workflow("random", submit_time=submit_time)
    created: list[Task] = []
    for i in range(n_tasks):
        deps = [t for t in created if rng.random() < edge_probability]
        task = wf.add_task(Task(_runtime(rng, mean_runtime),
                                name=f"t{i}", kind="random"),
                           dependencies=deps)
        created.append(task)
    wf.validate()
    return wf
