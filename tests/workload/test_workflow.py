"""Unit tests for workflow DAGs and the shape generators."""

import pathlib
import random

import pytest

from repro.workload import (
    Task,
    Workflow,
    chain_workflow,
    fork_join_workflow,
    montage_workflow,
    random_workflow,
    wfformat_workflow,
)

GALLERY = pathlib.Path(__file__).parents[2] / "examples" / "specs"


def test_add_task_requires_known_dependency():
    wf = Workflow("w")
    outsider = Task(1.0)
    with pytest.raises(ValueError):
        wf.add_task(Task(1.0), dependencies=[outsider])


def test_validate_detects_cycle():
    wf = Workflow("cyclic")
    a = wf.add_task(Task(1.0, name="a"))
    b = wf.add_task(Task(1.0, name="b"), dependencies=[a])
    a.add_dependency(b)  # sneak a cycle in behind the API
    with pytest.raises(ValueError, match="cycle"):
        wf.validate()


def test_levels_of_chain():
    wf = chain_workflow(length=4, runtime=2.0)
    levels = wf.levels()
    assert [len(level) for level in levels] == [1, 1, 1, 1]
    assert wf.depth == 4


def test_critical_path_of_chain_is_total_work():
    wf = chain_workflow(length=5, runtime=3.0)
    assert wf.critical_path_length() == pytest.approx(15.0)


def test_fork_join_structure():
    wf = fork_join_workflow(width=6, runtime=1.0)
    assert len(wf) == 8
    assert wf.depth == 3
    assert len(wf.entry_tasks()) == 1
    assert len(wf.exit_tasks()) == 1
    assert wf.critical_path_length() == pytest.approx(3.0)


def test_montage_shape():
    width = 8
    wf = montage_workflow(width=width, rng=random.Random(1))
    # width projects + (width-1) diffs + concat + width backgrounds + add
    assert len(wf) == width + (width - 1) + 1 + width + 1
    assert len(wf.entry_tasks()) == width
    assert len(wf.exit_tasks()) == 1
    assert wf.depth == 5
    assert all(t.kind == "montage" for t in wf)


def test_montage_width_validated():
    with pytest.raises(ValueError):
        montage_workflow(width=1)


def test_random_workflow_is_acyclic_and_sized():
    wf = random_workflow(n_tasks=30, edge_probability=0.3,
                         rng=random.Random(7))
    wf.validate()
    assert len(wf) == 30


def test_random_workflow_param_validation():
    with pytest.raises(ValueError):
        random_workflow(n_tasks=0)
    with pytest.raises(ValueError):
        random_workflow(edge_probability=1.5)


def test_topological_walk_respects_dependencies():
    wf = montage_workflow(width=4, rng=random.Random(2))
    seen = set()
    for task in wf.walk_topological():
        assert all(dep in seen for dep in task.dependencies)
        seen.add(task)
    assert len(seen) == len(wf)


def test_generators_respect_submit_time():
    wf = montage_workflow(width=3, submit_time=42.0)
    assert all(t.submit_time == 42.0 for t in wf)


def test_critical_path_bounds_level_sum():
    wf = wfformat_workflow(GALLERY / "ligo_small.wfformat.json")
    # Critical path is at most the sum of per-level max runtimes.
    per_level_max = sum(max(t.runtime for t in level) for level in wf.levels())
    assert wf.critical_path_length() <= per_level_max + 1e-9
