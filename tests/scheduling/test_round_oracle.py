"""Oracle tests for the fit-limited scheduling round.

A scheduling round walks the queue lazily, group by core demand, drops
every group that needs more cores than the largest free slot, carries
failed demand shapes across rounds, and probes placements through the
vectorized kernels.  None of that may change a decision.  The oracle
here is the naive round it replaces: order the whole queue with
``policy.order``, then try every task with the policy's scalar
``select()`` over ``available_machines()`` — no walk, no limit, no
failed-demand antichain, no kernels — and, in EASY rounds, reserve for
the blocked head from a sort of the running set instead of the
scheduler's trimmed release list.

Both schedulers run the same hypothesis-generated workload (a
heterogeneous fleet with memory-bound shapes, 1-8 core tasks, staggered
arrivals, an optional machine failure and repair) under every queue
policy, every placement policy, and list, ``strict_head`` and EASY
rounds; every task must start at the same time on the same machine and
``statistics()`` must agree exactly.  A second group pins the queue
itself: iteration equals a plain-list model of insertion order, the
walk equals the model sorted by the key, and the queued-core total
equals a fresh sum under any interleaving of enqueues, removals and
key swaps.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import (Cluster, Datacenter, Machine, MachineKind,
                              MachineSpec, Rack)
from repro.scheduling import (PLACEMENT_POLICIES, QUEUE_POLICIES,
                              ClusterScheduler, incremental_sort_key)
from repro.scheduling.taskqueue import TaskQueue
from repro.sim import Simulator
from repro.workload import Task


class NaiveRoundScheduler(ClusterScheduler):
    """The full-scan reference round: order everything, probe everything."""

    def _schedule_round(self) -> None:
        ordered = self.queue_policy.order(list(self.queue), self.sim.now)
        self.datacenter.begin_epoch()
        try:
            if self.backfilling:
                self._naive_easy(ordered)
            else:
                self._naive_list(ordered)
        finally:
            self.datacenter.end_epoch()
        self._queue_dirty = False
        self.queue_length.update(self.sim.now, len(self.queue))

    def _naive_select(self, task: Task):
        return self.placement_policy.select(
            task, self.datacenter.available_machines())

    def _naive_list(self, ordered: list[Task]) -> None:
        for task in ordered:
            machine = self._naive_select(task)
            if machine is None:
                if self.strict_head:
                    return
                continue
            self._start(task, machine)

    def _naive_easy(self, ordered: list[Task]) -> None:
        index = 0
        while index < len(ordered):
            machine = self._naive_select(ordered[index])
            if machine is None:
                break
            self._start(ordered[index], machine)
            index += 1
        if index >= len(ordered):
            return
        shadow_time, spare_cores = self._naive_reservation(ordered[index])
        now = self.sim.now
        for task in ordered[index + 1:]:
            finishes_before_shadow = now + task.runtime <= shadow_time + 1e-9
            if not (finishes_before_shadow or task.cores <= spare_cores):
                continue
            machine = self._naive_select(task)
            if machine is None:
                continue
            if not finishes_before_shadow:
                spare_cores -= task.cores
            self._start(task, machine)

    def _naive_reservation(self, head: Task) -> tuple[float, int]:
        """The head's reservation from a sort of the running set."""
        releases = sorted(
            (start + machine.effective_runtime(task), task.cores)
            for task, (machine, start) in self._running.items())
        available = self.datacenter.capacity.free_cores_total()
        shadow_time = self.sim.now
        for finish_time, cores in releases:
            if available >= head.cores:
                break
            available += cores
            shadow_time = finish_time
        return shadow_time, max(0, available - head.cores)


# ---------------------------------------------------------------------------
# Generated workloads
# ---------------------------------------------------------------------------
#: Heterogeneous shapes; the 8-core/6 GiB and 2-core/24 GiB machines
#: make memory, not cores, the binding constraint for some tasks.
_SPECS = (
    MachineSpec(cores=4, memory=16.0),
    MachineSpec(cores=8, memory=6.0, speed=2.0, kind=MachineKind.GPU,
                idle_watts=150.0, max_watts=500.0, cost_per_hour=4.0),
    MachineSpec(cores=2, memory=24.0, speed=0.5, cost_per_hour=0.25),
    MachineSpec(cores=6, memory=32.0, speed=1.5, cost_per_hour=3.0),
)

_task = st.tuples(
    st.floats(1.0, 30.0).map(lambda x: round(x, 1)),    # runtime
    st.integers(1, 8),                                  # cores
    st.sampled_from((0.5, 1.0, 2.0, 4.0, 8.0, 12.0)),   # memory
    st.floats(0.0, 40.0).map(lambda x: round(x, 1)),    # submit time
    st.one_of(st.none(),
              st.floats(10.0, 120.0).map(lambda x: round(x, 1))),
)

_workload = st.fixed_dictionaries({
    "machines": st.lists(st.integers(0, len(_SPECS) - 1),
                         min_size=2, max_size=6),
    "tasks": st.lists(_task, min_size=1, max_size=30),
    # (machine index, fail time, repair delay), or no failure.
    "failure": st.one_of(st.none(), st.tuples(
        st.integers(0, 5), st.floats(1.0, 40.0), st.floats(1.0, 30.0))),
})


def _simulate(workload: dict, scheduler_cls, queue: str, placement: str,
              mode: str) -> tuple[list, dict]:
    sim = Simulator()
    cluster = Cluster("c")
    rack = cluster.add_rack(Rack("c-rack"))
    machines = []
    for i, spec_index in enumerate(workload["machines"]):
        # Names run against topology order so name tie-breaks matter.
        machine = Machine(f"m{len(workload['machines']) - i}",
                          _SPECS[spec_index])
        rack.add(machine)
        machines.append(machine)
    datacenter = Datacenter(sim, [cluster])
    scheduler = scheduler_cls(
        sim, datacenter, queue_policy=QUEUE_POLICIES[queue](),
        placement_policy=PLACEMENT_POLICIES[placement](),
        backfilling=mode == "easy", strict_head=mode == "strict")
    tasks = [Task(runtime=runtime, cores=cores, memory=memory,
                  submit_time=submit, deadline=deadline, name=f"t{i}")
             for i, (runtime, cores, memory, submit, deadline)
             in enumerate(workload["tasks"])]

    def arrivals():
        for task in sorted(tasks, key=lambda t: t.submit_time):
            if task.submit_time > sim.now:
                yield sim.timeout(task.submit_time - sim.now)
            scheduler.submit(task)

    sim.process(arrivals())
    failure = workload["failure"]
    if failure is not None:
        index, fail_at, repair_after = failure
        victim = machines[index % len(machines)]

        def chaos():
            yield sim.timeout(fail_at)
            datacenter.fail_machine(victim)
            yield sim.timeout(repair_after)
            datacenter.repair_machine(victim)

        sim.process(chaos())
    sim.run(until=2000.0)
    outcome = [(t.name, t.state.value, t.start_time, t.machine,
                t.finish_time) for t in tasks]
    return outcome, scheduler.statistics()


@pytest.mark.parametrize("mode", ["list", "strict", "easy"])
@pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
@pytest.mark.parametrize("queue", sorted(QUEUE_POLICIES))
@settings(max_examples=6, deadline=None)
@given(workload=_workload)
def test_round_matches_naive_full_scan(queue, placement, mode, workload):
    fast = _simulate(workload, ClusterScheduler, queue, placement, mode)
    naive = _simulate(workload, NaiveRoundScheduler, queue, placement, mode)
    assert fast[0] == naive[0]
    # repr() compares floats exactly and NaN (nothing completed) as equal.
    assert repr(fast[1]) == repr(naive[1])


# ---------------------------------------------------------------------------
# The queue walk == sorted(queue, key)
# ---------------------------------------------------------------------------
_KEYED = sorted(name for name, cls in QUEUE_POLICIES.items()
                if incremental_sort_key(cls()) is not None)

_operation = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 79)),
    st.tuples(st.just("remove"), st.integers(0, 79)),
    st.tuples(st.just("set_key"), st.sampled_from([None, *_KEYED])),
    st.tuples(st.just("walk"), st.integers(0, 9)),
)


def _pool(seed: int, n: int) -> list[Task]:
    rng = random.Random(seed)
    return [Task(runtime=rng.choice([5.0, 10.0, 10.0, 20.0,
                                     round(rng.uniform(1.0, 50.0), 1)]),
                 cores=rng.choice([1, 1, 2, 3, 4, 8]),
                 memory=rng.choice([1.0, 2.0]),
                 submit_time=rng.choice([0.0, 1.0, 1.0,
                                         round(rng.uniform(0.0, 9.0), 1)]),
                 deadline=(None if rng.random() < 0.4
                           else round(rng.uniform(5.0, 99.0), 1)),
                 name=f"q{i}")
            for i in range(n)]


def _expected(model: list[Task], key) -> list[Task]:
    return sorted(model, key=key) if key is not None else list(model)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       operations=st.lists(_operation, max_size=120))
def test_walk_equals_sorted_under_interleaved_updates(seed, operations):
    tasks = _pool(seed, 80)
    queue = TaskQueue()
    # Insertion order kept as a plain list, independent of the queue:
    # a task removed and appended again goes to the end.
    model: list[Task] = []
    key = None
    for op, arg in operations:
        if op == "append":
            if tasks[arg] not in model:
                queue.append(tasks[arg])
                model.append(tasks[arg])
        elif op == "remove":
            if tasks[arg] in model:
                queue.remove(tasks[arg])
                model.remove(tasks[arg])
        elif op == "set_key":
            key = (incremental_sort_key(QUEUE_POLICIES[arg]())
                   if arg is not None else None)
            queue.set_key(key)
        else:
            # A bounded walk that removes every other task it yields,
            # the way a scheduling round starts tasks mid-walk.
            expected = [t for t in _expected(model, key) if t.cores <= arg]
            seen = []
            for task in queue.walk(lambda: arg):
                seen.append(task)
                if len(seen) % 2:
                    queue.remove(task)
                    model.remove(task)
            assert seen == expected
        assert list(queue) == model
        assert queue.ordered() == _expected(model, key)
        assert list(queue.walk()) == queue.ordered()
        assert queue.cores == sum(t.cores for t in model)


@pytest.mark.parametrize("policy_name", _KEYED)
def test_walk_survives_group_compaction(policy_name):
    # Enough removals, from the middle of each group, to trip the
    # tombstone sweep of the groups.
    key = incremental_sort_key(QUEUE_POLICIES[policy_name]())
    tasks = _pool(11, 600)
    queue = TaskQueue(key)
    queue.extend(tasks)
    rng = random.Random(3)
    for task in rng.sample(tasks, 450):
        queue.remove(task)
    assert queue.cores == sum(t.cores for t in queue)
    assert queue.ordered() == sorted(queue, key=key)
    assert list(queue) == [t for t in tasks if t in queue]
    # A walk that removes everything it yields sweeps groups mid-walk.
    queue = TaskQueue(key)
    queue.extend(tasks)
    seen = []
    for task in queue.walk():
        seen.append(task)
        queue.remove(task)
    assert seen == sorted(tasks, key=key)
    assert not queue


def test_walk_drops_groups_once_the_limit_falls():
    queue = TaskQueue(incremental_sort_key(QUEUE_POLICIES["fcfs"]()))
    tasks = [Task(runtime=1.0, cores=cores, submit_time=float(i),
                  name=f"w{i}")
             for i, cores in enumerate([4, 1, 2, 1, 4, 2, 1])]
    queue.extend(tasks)
    limits = iter([4, 2, 2, 1, 1, 1, 1])
    seen = [task.name for task in queue.walk(lambda: next(limits))]
    # The limit falls to 2 after w0 and to 1 after w2, so w4 (4 cores)
    # and w5 (2 cores) are dropped when they reach the head.
    assert seen == ["w0", "w1", "w2", "w3", "w6"]
