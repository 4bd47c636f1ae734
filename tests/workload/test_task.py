"""Unit tests for tasks, jobs and bags-of-tasks."""

import dataclasses

import pytest

from repro.workload import BagOfTasks, Job, Task, TaskState


def test_task_validation():
    with pytest.raises(ValueError):
        Task(runtime=-1.0)
    with pytest.raises(ValueError):
        Task(runtime=1.0, cores=0)
    with pytest.raises(ValueError):
        Task(runtime=1.0, memory=-2.0)


def test_task_ids_unique_and_named():
    a, b = Task(1.0), Task(1.0)
    assert a.task_id != b.task_id
    assert a.name.startswith("task-")


def test_tasks_compare_and_hash_by_identity():
    task = Task(runtime=3.0, cores=2, memory=4.0, name="original")
    copy = dataclasses.replace(task)
    assert copy.task_id == task.task_id
    assert all(getattr(copy, field.name) == getattr(task, field.name)
               for field in dataclasses.fields(Task))
    assert copy != task
    assert task == task
    assert len({task: "original", copy: "copy"}) == 2


def test_task_lifecycle_and_metrics():
    task = Task(runtime=10.0, submit_time=5.0)
    task.start(8.0, machine="m1")
    assert task.state is TaskState.RUNNING
    task.finish(18.0)
    assert task.state is TaskState.FINISHED
    assert task.wait_time == pytest.approx(3.0)
    assert task.response_time == pytest.approx(13.0)
    assert task.slowdown == pytest.approx(1.3)
    assert task.machine == "m1"


def test_task_double_start_rejected():
    task = Task(1.0)
    task.start(0.0)
    with pytest.raises(RuntimeError):
        task.start(1.0)


def test_task_finish_requires_running():
    task = Task(1.0)
    with pytest.raises(RuntimeError):
        task.finish(1.0)


def test_task_metrics_require_progress():
    task = Task(1.0)
    with pytest.raises(RuntimeError):
        _ = task.wait_time
    task.start(0.0)
    with pytest.raises(RuntimeError):
        _ = task.response_time


def test_task_failure_and_retry():
    task = Task(5.0)
    task.start(0.0)
    task.fail(2.0)
    assert task.state is TaskState.FAILED
    task.reset_for_retry()
    assert task.state is TaskState.PENDING
    assert task.start_time is None
    task.start(3.0)
    task.finish(8.0)
    assert task.state is TaskState.FINISHED


def test_retry_requires_failed_state():
    task = Task(1.0)
    with pytest.raises(RuntimeError):
        task.reset_for_retry()


def test_task_self_dependency_rejected():
    task = Task(1.0)
    with pytest.raises(ValueError):
        task.add_dependency(task)


def test_task_eligibility_follows_dependencies():
    dep, task = Task(1.0), Task(1.0)
    task.add_dependency(dep)
    assert not task.is_eligible
    dep.start(0.0)
    dep.finish(1.0)
    assert task.is_eligible


def test_task_deadline_checks():
    task = Task(runtime=5.0, deadline=10.0)
    assert not task.met_deadline  # not finished yet
    task.start(0.0)
    task.finish(9.0)
    assert task.met_deadline
    late = Task(runtime=5.0, deadline=4.0)
    late.start(0.0)
    late.finish(5.0)
    assert not late.met_deadline


def test_task_without_deadline_always_meets_it():
    assert Task(1.0).met_deadline


def test_job_aligns_submit_times():
    job = Job("j", [Task(1.0), Task(2.0)], submit_time=7.0)
    assert all(t.submit_time == 7.0 for t in job)
    late = job.add(Task(3.0))
    assert late.submit_time == 7.0


def test_job_makespan_and_demand():
    tasks = [Task(10.0), Task(4.0)]
    job = Job("j", tasks, submit_time=0.0)
    for i, task in enumerate(tasks):
        task.start(float(i))
        task.finish(float(i) + task.runtime)
    assert job.is_finished
    assert job.makespan == pytest.approx(10.0)
    assert job.total_core_seconds == pytest.approx(14.0)


def test_job_makespan_requires_completion():
    job = Job("j", [Task(1.0)])
    with pytest.raises(RuntimeError):
        _ = job.makespan


def test_bag_of_tasks_rejects_dependencies():
    a = Task(1.0)
    b = Task(1.0)
    b.add_dependency(a)
    with pytest.raises(ValueError):
        BagOfTasks("bot", [a, b])


def test_core_seconds():
    assert Task(10.0, cores=4).core_seconds == 40.0
