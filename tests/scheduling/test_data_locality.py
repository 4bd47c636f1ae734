"""Data-aware placement: the DataStore model and the data-local policy.

Covers the transfer-accounting substrate (file residency, stage-in
delays, publish-on-success), the ``data-local`` placement policy's
scalar/vectorized bit-identity when bound to a populated store, and
the headline claim: on a workflow whose stages re-read files produced
elsewhere, data-aware placement strictly beats data-blind first-fit on
total transfer time — deterministically, with pinned digests.
"""

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.datacenter import DataStore, Machine, MachineSpec
from repro.scenario import ScenarioSpec
from repro.scheduling import PLACEMENT_POLICIES
from repro.scheduling.policies import DataLocalFit, vectorized_placement
from repro.workload import Task

from .test_vectorized_policies import make_fleet, make_probe, perturb_fleet

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
LIGO_SPEC = SPEC_DIR / "ligo_small_scenario.json"


# ---------------------------------------------------------------------------
# DataStore semantics
# ---------------------------------------------------------------------------
class TestDataStore:
    def machine(self, name="m0", bandwidth=100.0):
        return Machine(name, MachineSpec(cores=4, memory=16.0,
                                         link_bandwidth=bandwidth))

    def test_stage_in_charges_remote_bytes_over_the_link(self):
        store = DataStore()
        machine = self.machine(bandwidth=100.0)
        task = Task(runtime=1.0, input_files={"a": 300.0, "b": 200.0})
        delay = store.stage_in(task, machine)
        assert delay == pytest.approx(5.0)  # 500 bytes at 100 B/s
        assert store.transfer_bytes == 500.0
        assert store.transfer_seconds == pytest.approx(5.0)
        assert store.holds("m0", "a") and store.holds("m0", "b")

    def test_resident_inputs_are_free_on_restage(self):
        store = DataStore()
        machine = self.machine()
        task = Task(runtime=1.0, input_files={"a": 300.0})
        store.stage_in(task, machine)
        # A retry on the same machine pays nothing (shared-disk model).
        retry = Task(runtime=1.0, input_files={"a": 300.0})
        assert store.stage_in(retry, machine) == 0.0
        assert store.local_bytes == 300.0
        assert store.transfers == 1 and store.stagings == 2

    def test_publish_makes_outputs_local_for_children(self):
        store = DataStore()
        machine = self.machine()
        parent = Task(runtime=1.0, output_files={"out": 400.0})
        store.publish(parent, "m0")
        child = Task(runtime=1.0, input_files={"out": 400.0})
        assert store.remote_bytes(child, "m0") == 0.0
        assert store.remote_bytes(child, "elsewhere") == 400.0
        assert store.stage_in(child, machine) == 0.0

    def test_fileless_tasks_leave_the_store_inert(self):
        store = DataStore()
        task = Task(runtime=1.0)
        assert store.stage_in(task, self.machine()) == 0.0
        store.publish(task, "m0")
        assert store.statistics() == {
            "transfer_seconds": 0.0, "transfer_bytes": 0.0,
            "local_bytes": 0.0, "transfers": 0.0, "stagings": 0.0}


# ---------------------------------------------------------------------------
# Policy: scalar semantics and kernel bit-identity with a bound store
# ---------------------------------------------------------------------------
class TestDataLocalFit:
    def test_registered_alongside_the_other_policies(self):
        assert PLACEMENT_POLICIES["data-local"] is DataLocalFit

    def test_prefers_the_machine_holding_the_inputs(self):
        store = DataStore()
        store.publish(Task(runtime=1.0, output_files={"big": 1e9}), "b")
        policy = DataLocalFit()
        policy.bind_datacenter(SimpleNamespace(data=store))
        machines = [Machine(n, MachineSpec(cores=4, memory=16.0))
                    for n in ("a", "b", "c")]
        task = Task(runtime=1.0, cores=1, input_files={"big": 1e9})
        assert policy.select(task, machines).name == "b"
        # Without declared inputs the tie-break is machine name.
        assert policy.select(Task(runtime=1.0), machines).name == "a"

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_kernel_matches_scalar_over_perturbed_fleet(self, seed):
        rng = random.Random(seed)
        index, machines = make_fleet(rng, 24, f"data-local-{seed}")
        store = DataStore()
        reference = DataLocalFit()
        vectorized = DataLocalFit()
        for policy in (reference, vectorized):
            policy.bind_datacenter(SimpleNamespace(data=store))
        kernel = vectorized_placement(vectorized)
        assert kernel is not None

        files = [f"f{i}" for i in range(12)]
        fillers = []
        for i in range(120):
            perturb_fleet(rng, machines, fillers)
            if rng.random() < 0.5:
                store.publish(
                    Task(runtime=1.0, output_files={
                        rng.choice(files): rng.uniform(1.0, 1e9)}),
                    rng.choice(machines).name)
            probe = make_probe(rng, i)
            if rng.random() < 0.7:
                probe.input_files = {
                    name: rng.uniform(1.0, 1e9)
                    for name in rng.sample(files, rng.randint(1, 4))}
            assert index.sync() is not None
            expected = reference.select(probe, index.available_machines())
            got = kernel(vectorized, probe, index)
            assert got is expected, (
                f"step {i}: kernel chose {got and got.name}, "
                f"scalar chose {expected and expected.name}")
            if expected is not None:
                expected.allocate(probe)
                fillers.append((expected, probe))


# ---------------------------------------------------------------------------
# End to end: data-local beats data-blind FCFS on transfer time
# ---------------------------------------------------------------------------
class TestDataAwareReplay:
    @pytest.fixture(scope="class", name="results")
    def results_fixture(self):
        spec = ScenarioSpec.from_json(LIGO_SPEC.read_text())
        assert spec.scheduler.placement == "data-local"
        blind = spec.override({"scheduler.placement": "first-fit"})
        return {name: s.run()
                for name, s in (("data-local", spec), ("first-fit", blind))}

    def test_data_local_moves_strictly_fewer_bytes(self, results):
        aware = results["data-local"].datacenter
        blind = results["first-fit"].datacenter
        assert (aware["data_transfer_seconds"]
                < blind["data_transfer_seconds"])
        assert aware["data_transfer_bytes"] < blind["data_transfer_bytes"]
        assert aware["data_local_bytes"] > blind["data_local_bytes"]

    def test_transfer_savings_are_pinned(self, results):
        # 100 MB/s links: first-fit ships 2.13 GB, data-local 1.13 GB.
        aware = results["data-local"].datacenter
        blind = results["first-fit"].datacenter
        assert blind["data_transfer_seconds"] == pytest.approx(21.3)
        assert aware["data_transfer_seconds"] == pytest.approx(11.3)
        assert results["data-local"].makespan <= results["first-fit"].makespan

    def test_both_configurations_reproduce_their_digests(self, results):
        spec = ScenarioSpec.from_json(LIGO_SPEC.read_text())
        assert spec.run().digest() == results["data-local"].digest()
        blind = spec.override({"scheduler.placement": "first-fit"})
        assert blind.run().digest() == results["first-fit"].digest()

    def test_all_tasks_finish_under_both_policies(self, results):
        doc = json.loads(
            (SPEC_DIR / "ligo_small.wfformat.json").read_text())
        n = len(doc["workflow"]["specification"]["tasks"])
        for result in results.values():
            assert result.tasks_finished == n
