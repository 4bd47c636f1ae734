"""Property-style equivalence tests for the scheduling fast paths.

The epoch-batched scheduler has two fast-path seams, and both promise
*bit-identical* results to the reference implementations:

- queue ordering: policies with a time-invariant key are kept
  incrementally sorted by :class:`TaskQueue` instead of re-sorted each
  round (``_INCREMENTAL_SORT_KEYS``);
- placement: policies with a vectorized kernel scan the whole fleet's
  :class:`CapacityVectors` in one numpy pass instead of probing
  machines one by one (``vectorized_placement``).

These tests drive both paths against the naive references over
randomized queues and heterogeneous, partially loaded, partially failed
fleets, asserting exact agreement — including name tie-breaks, the
``can_fit`` memory epsilon, and RoundRobin's rotation cursor.  They
also pin the registries themselves: a new policy must either join a
fast path or be listed as a documented fallback, never silently miss
both.  Under the same perturbations plus bare availability flips, the
capacity index's counters (used, free, machines up; totals and per
cluster) must equal a machine-by-machine recount after every step.
"""

import random

import pytest

from repro.datacenter import Cluster, Machine, MachineKind, MachineSpec, Rack
from repro.datacenter.capacity import CapacityIndex
from repro.scheduling import (
    ORDER_FALLBACKS,
    PLACEMENT_POLICIES,
    QUEUE_POLICIES,
    FairShare,
    RandomOrder,
    RoundRobin,
    incremental_sort_key,
)
from repro.scheduling.policies import (
    _INCREMENTAL_SORT_KEYS,
    _VECTOR_PLACEMENTS,
    vectorized_placement,
)
from repro.scheduling.taskqueue import TaskQueue
from repro.workload import Task


# ---------------------------------------------------------------------------
# Registry exhaustiveness: no policy silently misses its fast path
# ---------------------------------------------------------------------------
class TestRegistries:
    def test_every_queue_policy_is_incremental_or_documented_fallback(self):
        for name, cls in QUEUE_POLICIES.items():
            assert cls in _INCREMENTAL_SORT_KEYS or cls in ORDER_FALLBACKS, (
                f"queue policy {name!r} has neither an incremental sort key "
                "nor an ORDER_FALLBACKS entry — add one or document the "
                "fallback")

    def test_every_placement_policy_has_a_vectorized_kernel(self):
        for name, cls in PLACEMENT_POLICIES.items():
            assert cls in _VECTOR_PLACEMENTS, (
                f"placement policy {name!r} has no vectorized kernel")

    def test_fallbacks_have_no_incremental_key(self):
        for cls in ORDER_FALLBACKS:
            assert incremental_sort_key(cls()) is None

    def test_subclasses_do_not_inherit_fast_paths(self):
        # Subclasses may override order()/select(), so exact-type
        # matching must send them down the reference path.
        class TweakedFCFS(QUEUE_POLICIES["fcfs"]):
            pass

        class TweakedFirstFit(PLACEMENT_POLICIES["first-fit"]):
            pass

        assert incremental_sort_key(TweakedFCFS()) is None
        assert vectorized_placement(TweakedFirstFit()) is None


# ---------------------------------------------------------------------------
# Queue ordering: incremental view == policy.order == sorted(key)
# ---------------------------------------------------------------------------
def make_random_tasks(rng: random.Random, n: int) -> list[Task]:
    """Tasks with deliberate key collisions and missing deadlines."""
    tasks = []
    for i in range(n):
        tasks.append(Task(
            runtime=rng.choice([5.0, 10.0, 10.0, 20.0,
                                round(rng.uniform(1.0, 50.0), 1)]),
            cores=rng.choice([1, 1, 2, 4, 8]),
            memory=rng.choice([1.0, 2.0, 4.0]),
            submit_time=rng.choice([0.0, 1.0, 1.0, 2.0,
                                    round(rng.uniform(0.0, 10.0), 1)]),
            deadline=(None if rng.random() < 0.4
                      else round(rng.uniform(5.0, 100.0), 1)),
            name=f"t{i:03d}"))
    return tasks


class TestQueueOrderEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy_name", sorted(
        name for name, cls in QUEUE_POLICIES.items()
        if cls in _INCREMENTAL_SORT_KEYS))
    def test_order_matches_shared_key_and_incremental_queue(
            self, policy_name, seed):
        rng = random.Random(seed)
        tasks = make_random_tasks(rng, 40)
        policy = QUEUE_POLICIES[policy_name]()
        key = incremental_sort_key(policy)
        assert key is not None

        reference = policy.order(list(tasks), now=3.0)
        assert reference == sorted(tasks, key=key)

        # Incremental queue under churn: shuffled arrivals, random
        # removals, late arrivals.
        queue = TaskQueue(key)
        arrivals = list(tasks)
        rng.shuffle(arrivals)
        queue.extend(arrivals[:30])
        for task in rng.sample(arrivals[:30], 10):
            queue.remove(task)
        queue.extend(arrivals[30:])
        assert queue.ordered() == policy.order(list(queue), now=3.0)

    @pytest.mark.parametrize("policy_name", sorted(
        name for name, cls in QUEUE_POLICIES.items()
        if cls in _INCREMENTAL_SORT_KEYS))
    def test_large_rebuild_equals_order(self, policy_name):
        # set_key on a deep backlog rebuilds every group at once; the
        # rebuilt view must equal the policy's own order().
        rng = random.Random(99)
        tasks = make_random_tasks(rng, 400)
        policy = QUEUE_POLICIES[policy_name]()
        key = incremental_sort_key(policy)
        queue = TaskQueue()
        queue.extend(tasks)
        queue.set_key(key)
        assert queue.ordered() == policy.order(tasks, now=0.0)

    def test_fair_share_order_uses_its_sort_key(self):
        rng = random.Random(7)
        tasks = make_random_tasks(rng, 20)
        policy = FairShare()
        for i, task in enumerate(tasks):
            policy.register(task, user=f"user{i % 3}")
        assert policy.order(tasks, now=0.0) == sorted(
            tasks, key=policy.sort_key)
        # Charging mutates the key — the documented reason FairShare is
        # a fallback — and order() must follow the mutated key.
        for task in tasks[:7]:
            policy.charge(task)
        assert policy.order(tasks, now=0.0) == sorted(
            tasks, key=policy.sort_key)

    def test_random_order_is_a_seeded_permutation(self):
        tasks = make_random_tasks(random.Random(3), 15)
        a = RandomOrder(random.Random(42)).order(tasks, now=0.0)
        b = RandomOrder(random.Random(42)).order(tasks, now=0.0)
        assert a == b
        assert sorted(a, key=id) == sorted(tasks, key=id)


# ---------------------------------------------------------------------------
# Placement: vectorized kernel == reference select(), step by step
# ---------------------------------------------------------------------------
_SPECS = [
    MachineSpec(cores=16, memory=64.0, speed=1.0, kind=MachineKind.CPU),
    MachineSpec(cores=8, memory=32.0, speed=4.0, kind=MachineKind.GPU,
                idle_watts=150.0, max_watts=500.0, cost_per_hour=4.0),
    MachineSpec(cores=4, memory=16.0, speed=2.0, kind=MachineKind.FPGA,
                idle_watts=40.0, max_watts=120.0, cost_per_hour=2.0),
    MachineSpec(cores=2, memory=8.0, speed=0.5, cost_per_hour=0.25),
    MachineSpec(cores=32, memory=128.0, speed=1.5, cost_per_hour=3.0),
]


def make_fleet(rng: random.Random, n_machines: int,
               tag: str) -> tuple[CapacityIndex, list[Machine]]:
    """A heterogeneous fleet with name order != topology order.

    Reversed name suffixes force key ties to be broken by name rank
    against topology order, which is exactly where a sloppy tie-break
    would diverge from the scalar ``min(..., key=(key, name))``.
    """
    cluster = Cluster(f"fleet-{tag}")
    rack = None
    for i in range(n_machines):
        if i % 4 == 0:
            rack = cluster.add_rack(Rack(f"fleet-{tag}-rack{i // 4}"))
        spec = rng.choice(_SPECS)
        rack.add(Machine(f"fleet-{tag}-m{n_machines - i:03d}", spec))
    index = CapacityIndex([cluster])
    machines = list(index.machines())
    return index, machines


def perturb_fleet(rng: random.Random, machines: list[Machine],
                  fillers: list[tuple[Machine, Task]]) -> None:
    """Randomly load, unload, fail, repair, and reserve memory."""
    action = rng.random()
    if action < 0.45:
        machine = rng.choice(machines)
        filler = Task(runtime=100.0,
                      cores=rng.randint(1, max(1, machine.spec.cores // 2)),
                      memory=round(rng.uniform(0.5, machine.spec.memory / 2),
                                   1),
                      name=f"filler{len(fillers)}")
        if machine.can_fit(filler):
            machine.allocate(filler)
            fillers.append((machine, filler))
    elif action < 0.6 and fillers:
        machine, filler = fillers.pop(rng.randrange(len(fillers)))
        if filler in machine._allocations:
            machine.release(filler)
    elif action < 0.75:
        machine = rng.choice(machines)
        if machine.available:
            machine.fail()
        else:
            machine.repair()
    elif action < 0.85:
        machine = rng.choice(machines)
        key = f"borrow-{rng.randrange(10 ** 6)}"
        amount = round(rng.uniform(0.5, 4.0), 1)
        if amount <= machine.memory_free:
            machine.reserve_memory(key, amount)


def make_probe(rng: random.Random, i: int) -> Task:
    return Task(
        runtime=rng.choice([1.0, 10.0, 10.0, 60.0]),
        cores=rng.choice([1, 1, 2, 4, 8, 16, 64]),  # 64 fits nowhere
        memory=rng.choice([0.5, 1.0, 4.0, 16.0, 60.0, 10_000.0]),
        checkpoint_interval=(None if rng.random() < 0.7
                             else rng.choice([3.0, 7.0])),
        checkpoint_overhead=0.5,
        name=f"probe{i}")


class TestPlacementEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("policy_name", sorted(PLACEMENT_POLICIES))
    def test_kernel_matches_reference_over_perturbed_fleet(
            self, policy_name, seed):
        rng = random.Random(seed)
        index, machines = make_fleet(rng, 24, f"{policy_name}-{seed}")
        reference = PLACEMENT_POLICIES[policy_name]()
        vectorized = PLACEMENT_POLICIES[policy_name]()
        kernel = vectorized_placement(vectorized)
        assert kernel is not None

        fillers: list[tuple[Machine, Task]] = []
        placements = 0
        for i in range(120):
            perturb_fleet(rng, machines, fillers)
            probe = make_probe(rng, i)
            assert index.sync() is not None
            expected = reference.select(probe, index.available_machines())
            got = kernel(vectorized, probe, index)
            assert got is expected, (
                f"{policy_name} step {i}: kernel chose "
                f"{got and got.name}, reference chose "
                f"{expected and expected.name}")
            if isinstance(reference, RoundRobin):
                assert vectorized._next == reference._next
            if expected is not None:
                expected.allocate(probe)
                fillers.append((expected, probe))
                placements += 1
        # The walk must actually exercise both outcomes.
        assert placements > 10
        assert placements < 120

    def test_fit_mask_matches_can_fit_exactly(self):
        rng = random.Random(11)
        index, machines = make_fleet(rng, 16, "mask")
        fillers: list[tuple[Machine, Task]] = []
        for _ in range(30):
            perturb_fleet(rng, machines, fillers)
        vectors = index.sync()
        assert vectors is not None
        for cores, memory in [(1, 0.5), (2, 4.0), (8, 16.0), (4, 10_000.0)]:
            probe = Task(runtime=1.0, cores=cores, memory=memory, name="p")
            mask = vectors.fit_mask(cores, memory)
            assert mask.tolist() == [m.can_fit(probe)
                                     for m in vectors.machines]

    def test_fit_mask_honors_memory_epsilon_boundary(self):
        # can_fit admits memory demands up to free + 1e-12; the
        # vectorized mask must sit on the same boundary.
        machine = Machine("eps-m0", MachineSpec(cores=4, memory=32.0))
        cluster = Cluster("eps", [Rack("eps-r0", [machine])])
        index = CapacityIndex([cluster])
        machine.allocate(Task(runtime=10.0, cores=1, memory=30.5, name="f"))
        vectors = index.sync()
        assert vectors is not None
        exact = Task(runtime=1.0, cores=1, memory=1.5, name="exact")
        over = Task(runtime=1.0, cores=1, memory=1.5 + 1e-9, name="over")
        assert machine.can_fit(exact)
        assert not machine.can_fit(over)
        assert vectors.fit_mask(exact.cores, exact.memory).tolist() == [True]
        assert vectors.fit_mask(over.cores, over.memory).tolist() == [False]


# ---------------------------------------------------------------------------
# Capacity counters == a from-scratch count, step by step
# ---------------------------------------------------------------------------
def _recount(machines) -> tuple[int, int, int]:
    """(used cores, free cores, machines up) counted machine by machine."""
    up = [m for m in machines if m.available]
    return (sum(m.cores_used for m in machines),
            sum(m.cores_free for m in up), len(up))


class TestCapacityCounters:
    @pytest.mark.parametrize("seed", range(4))
    def test_counters_equal_a_recount_over_perturbed_fleet(self, seed):
        # Two fleets under their own indexes plus one index over both,
        # so every machine notifies two watchers and the per-cluster
        # counters are distinct from the totals.
        rng = random.Random(seed)
        index_a, fleet_a = make_fleet(rng, 12, f"count-{seed}-a")
        index_b, fleet_b = make_fleet(rng, 12, f"count-{seed}-b")
        both = CapacityIndex([*index_a.clusters, *index_b.clusters])
        machines = fleet_a + fleet_b
        fillers: list[tuple[Machine, Task]] = []
        for step in range(200):
            perturb_fleet(rng, machines, fillers)
            action = rng.random()
            machine = rng.choice(machines)
            if action < 0.2:
                # A lease flip: the machine keeps whatever it runs.
                machine.available = not machine.available
            elif action < 0.25:
                # Also evicts from a machine already down.
                machine.fail()
            for index in (index_a, index_b, both):
                used, free, up = _recount(index.machines())
                assert (index.used_cores_total(), index.free_cores_total(),
                        index.available_count()) == (used, free, up), (
                    f"step {step}")
                for cluster in index.clusters:
                    used, free, _ = _recount(cluster.machines())
                    assert (index.cluster_used_cores(cluster),
                            index.cluster_free_cores(cluster)) == (
                                used, free), f"step {step}"
