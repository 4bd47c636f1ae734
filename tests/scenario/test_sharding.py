"""Sharded execution: config errors, determinism, goldens, CLI.

The sharding determinism contract (docs/ARCHITECTURE.md, "Sharding")
says a spec with a ``shards`` section produces one merged result and
fleet telemetry, a pure function of the spec, whose per-shard results
do not depend on how tight the conservative epoch is within its legal
range.  These tests pin that contract three ways: typed
:class:`ShardConfigError` for every structural mistake, epoch and
observation invariance (including a hypothesis sweep over random
partitions), and a committed golden for the planet-scale gallery spec
through every entry point that runs it.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.federation import fleet_digest
from repro.scenario import (ClusterSpec, ScenarioResult, ScenarioSpec,
                            ShardLinkSpec, ShardOffloadSpec, ShardPlanSpec,
                            ShardSpec, TopologySpec, WorkloadSpec)
from repro.scenario.sweep import run_spec_observed
from repro.sim.sharding import ShardConfigError, ShardedScenarioRuntime

GOLDEN_PATH = Path(__file__).parent / "goldens" / "sharding.json"
SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"


def _clusters():
    return (ClusterSpec("west", 3, cores=2, machines_per_rack=3),
            ClusterSpec("east", 3, cores=2, machines_per_rack=3))


def _workload(prefix: str, n_tasks: int = 10) -> WorkloadSpec:
    return WorkloadSpec("uniform-tasks", {
        "n_tasks": n_tasks, "runtime": [4.0, 15.0], "cores": 1,
        "submit": [0.0, 12.0], "prefix": prefix,
        "stream": f"{prefix}load"})


def _sharded_spec(*, offload: bool = True, epoch: float | None = None,
                  slos=None) -> ScenarioSpec:
    """Two busy shards with one wide-area link (and optional offload)."""
    plan = ShardPlanSpec(
        shards=(
            ShardSpec("w", ("west",), workload=_workload("w", 14),
                      offload=(ShardOffloadSpec("e", threshold=0.5)
                               if offload else None)),
            ShardSpec("e", ("east",), workload=_workload("e", 6)),
        ),
        links=(ShardLinkSpec("w", "e", latency=0.5),),
        epoch=epoch)
    return ScenarioSpec(
        name="two-region", seed=42,
        topology=TopologySpec(clusters=_clusters(), datacenter="pair"),
        workload=_workload("base"),
        horizon=400.0, shards=plan, slos=slos)


# ---------------------------------------------------------------------------
# Typed configuration errors
# ---------------------------------------------------------------------------


def test_unknown_datacenter_cluster_rejected():
    plan = ShardPlanSpec(shards=(ShardSpec("w", ("nowhere",)),))
    with pytest.raises(ShardConfigError, match="unknown datacenter"):
        ScenarioSpec(name="bad", seed=1,
                     topology=TopologySpec(clusters=_clusters()),
                     workload=_workload("x"), shards=plan)


def test_unassigned_cluster_rejected():
    plan = ShardPlanSpec(shards=(ShardSpec("w", ("west",)),))
    with pytest.raises(ShardConfigError, match="partition the topology"):
        ScenarioSpec(name="bad", seed=1,
                     topology=TopologySpec(clusters=_clusters()),
                     workload=_workload("x"), shards=plan)


def test_overlapping_shards_rejected():
    with pytest.raises(ShardConfigError, match="overlapping shards"):
        ShardPlanSpec(shards=(ShardSpec("w", ("west",)),
                              ShardSpec("e", ("west", "east"))))


def test_duplicate_shard_names_rejected():
    with pytest.raises(ShardConfigError, match="duplicate shard names"):
        ShardPlanSpec(shards=(ShardSpec("w", ("west",)),
                              ShardSpec("w", ("east",))))


def test_zero_latency_link_rejected():
    with pytest.raises(ShardConfigError, match="zero-latency"):
        ShardLinkSpec("w", "e", latency=0.0)


def test_epoch_beyond_min_latency_rejected():
    with pytest.raises(ShardConfigError, match="exceeds the minimum"):
        ShardPlanSpec(
            shards=(ShardSpec("w", ("west",)), ShardSpec("e", ("east",))),
            links=(ShardLinkSpec("w", "e", latency=0.5),),
            epoch=0.75)


def test_offload_without_link_rejected():
    with pytest.raises(ShardConfigError, match="no link"):
        ShardPlanSpec(
            shards=(ShardSpec("w", ("west",),
                              offload=ShardOffloadSpec("e")),
                    ShardSpec("e", ("east",))))


def test_offload_to_self_rejected():
    with pytest.raises(ShardConfigError, match="offload to itself"):
        ShardPlanSpec(
            shards=(ShardSpec("w", ("west",),
                              offload=ShardOffloadSpec("w")),
                    ShardSpec("e", ("east",))),
            links=(ShardLinkSpec("w", "e", latency=0.5),))


def test_run_sharded_requires_shards_section():
    spec = ScenarioSpec(name="plain", seed=1,
                        topology=TopologySpec(clusters=_clusters()),
                        workload=_workload("x"))
    with pytest.raises(ShardConfigError, match="declares no shards"):
        ShardedScenarioRuntime(spec)


def test_sharded_build_rejects_overrides():
    with pytest.raises(ShardConfigError, match="override"):
        _sharded_spec().build(seed=7)


# ---------------------------------------------------------------------------
# Determinism: epoch and observation invariance
# ---------------------------------------------------------------------------


def test_spec_roundtrip_preserves_shards_and_fingerprint():
    spec = _sharded_spec(epoch=0.25)
    again = ScenarioSpec.from_json(spec.to_json())
    assert again.shards is not None
    assert again.shards.epoch == 0.25
    assert again.fingerprint() == spec.fingerprint()
    assert again.shards.lookahead() == 0.25


def test_sharded_run_crosses_the_boundary():
    result = _sharded_spec().run()
    coupling = result.shards["coupling"]
    assert coupling["offloaded"] > 0
    assert coupling["acked"] == coupling["offloaded"]
    assert result.tasks_finished == result.tasks_total


def test_observation_does_not_change_result_bytes():
    spec = _sharded_spec()
    plain = ShardedScenarioRuntime(spec)
    observed = ShardedScenarioRuntime(spec, capture=True)
    assert observed.execute().to_json() == plain.execute().to_json()
    assert observed.telemetry["runs"] == ["shard-e", "shard-w"]
    assert plain.telemetry is None


def test_sharded_runtime_supports_validation_tooling():
    """tools/validate_specs.py drives build()/finalize()/tasks as-is."""
    runtime = _sharded_spec().build()
    assert isinstance(runtime, ShardedScenarioRuntime)
    runtime.finalize()
    assert len(runtime.tasks) == 20


@settings(max_examples=5, deadline=None)
@given(partition=st.lists(st.booleans(), min_size=2, max_size=2),
       epoch_fraction=st.floats(min_value=0.1, max_value=1.0))
def test_epoch_and_partition_invariance(partition, epoch_fraction):
    """The simulated physics never depend on the legal epoch choice.

    Conservative coupling guarantees the epoch width (any value in
    ``(0, min link latency]``) only batches message injection — it
    never reorders events — so every per-shard result and every merged
    counter must be a function of the partition alone.  Only the
    coupling record itself (lookahead, epoch count) may differ.
    """
    # Partition the two clusters between the shards; each shard keeps
    # at least its own home cluster when the draw would empty it.
    west_home, east_home = ("w" if partition[0] else "e",
                            "e" if partition[1] else "w")
    if west_home == east_home:
        west_home, east_home = "w", "e"
    owners = {"west": west_home, "east": east_home}
    shards = tuple(
        ShardSpec(name, tuple(c for c, o in owners.items() if o == name),
                  workload=_workload(name, 8))
        for name in ("w", "e"))
    links = (ShardLinkSpec("w", "e", latency=0.5),)
    def build(epoch):
        return ScenarioSpec(
            name="prop", seed=9,
            topology=TopologySpec(clusters=_clusters(),
                                  datacenter="prop"),
            workload=_workload("base"), horizon=400.0,
            shards=ShardPlanSpec(shards=shards, links=links,
                                 epoch=epoch))

    base = build(None).run()
    tight = build(round(0.5 * epoch_fraction, 6)).run()
    for name, entry in base.shards["by_shard"].items():
        assert tight.shards["by_shard"][name] == entry
    assert tight.makespan == base.makespan
    assert tight.tasks_finished == base.tasks_finished
    assert tight.datacenter == base.datacenter
    assert (tight.shards["coupling"]["offloaded"]
            == base.shards["coupling"]["offloaded"])


# ---------------------------------------------------------------------------
# Oracle: one shard with no links runs exactly like no shards at all
# ---------------------------------------------------------------------------

#: Gallery specs for the oracle, with the overrides each run applies.
#: The autoscaled run needs a ``duration``: without one its controller
#: would keep ticking to ``max_time``.
ORACLE_SPECS = {
    "telemetry": ("chaos_slo.json", {}),
    "workflow": ("montage_small_scenario.json", {}),
    "autoscaled": ("chaos_baseline.json", {
        "scheduler.backfilling": True,
        "autoscaler": {"policy": "react", "interval": 10.0},
        "duration": 150.0}),
}


@pytest.mark.parametrize("epoch", [None, 2.0], ids=["lookahead", "epoch2"])
@pytest.mark.parametrize("case", sorted(ORACLE_SPECS))
def test_one_shard_equals_no_shards(case, epoch):
    """The epoch loop reproduces the plain drive loop exactly.

    A one-shard plan without links has nothing to couple, so its
    shard result must equal the byte-for-byte result of running the
    shard's own single-region spec through ``ScenarioSpec.run()`` —
    whether the shard advances in one window or in 2-second epochs.
    """
    filename, overrides = ORACLE_SPECS[case]
    spec = ScenarioSpec.from_json((SPEC_DIR / filename).read_text())
    plan = {"shards": [{"name": "solo", "clusters": [
        cluster.name for cluster in spec.topology.clusters]}], "links": []}
    overrides = dict(overrides)
    if epoch is not None:
        plan["epoch"] = epoch
        overrides["duration"] = 150.0
    sharded = spec.override({**overrides, "shards": plan})
    result = sharded.run()
    plain = sharded.shard_subspec(sharded.shards.shards[0]).run()
    assert result.shards["by_shard"]["solo"]["result"] == plain.to_dict()


# ---------------------------------------------------------------------------
# Golden: the planet-scale gallery spec is pinned
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", name="golden")
def golden_fixture() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module", name="planet_spec")
def planet_spec_fixture() -> ScenarioSpec:
    return ScenarioSpec.from_json(
        (SPEC_DIR / "planet_scale.json").read_text())


def test_golden_schema(golden):
    assert golden["schema"] == "sharding-goldens/v1"
    assert set(golden) >= {"planet_scale"}


def test_planet_scale_digests_pinned(golden, planet_spec):
    pinned = golden["planet_scale"]
    assert planet_spec.fingerprint() == pinned["fingerprint"]
    runtime = ShardedScenarioRuntime(planet_spec, capture=True)
    result = runtime.execute()
    assert result.digest() == pinned["result"]
    assert fleet_digest(runtime.telemetry) == pinned["fleet"]
    coupling = result.shards["coupling"]
    assert coupling["epochs"] == runtime.epochs == pinned["epochs"]
    assert coupling["offloaded"] == pinned["offloaded"]


def test_planet_scale_sweep_point_is_pinned(golden, planet_spec):
    """A sweep's observed run reports the plain run's bytes."""
    result_json, snapshot_json = run_spec_observed(planet_spec.to_json(),
                                                   "point-00000")
    assert result_json == planet_spec.run().to_json()
    assert (ScenarioResult.from_json(result_json).digest()
            == golden["planet_scale"]["result"])
    assert json.loads(snapshot_json)["run_id"] == "point-00000"


# ---------------------------------------------------------------------------
# CLI: the planet spec prints its golden digest; shard config errors
# exit 2 with one friendly line
# ---------------------------------------------------------------------------


def test_cli_run_prints_shard_line_and_golden_digest(golden, capsys):
    from repro.__main__ import main
    assert main(["run", str(SPEC_DIR / "planet_scale.json")]) == 0
    out = capsys.readouterr().out
    pinned = golden["planet_scale"]
    assert "  shards: 3" in out
    assert (f"{pinned['epochs']} epochs, {pinned['offloaded']} task(s) "
            f"offloaded") in out
    assert f"  digest: {pinned['result']}" in out


def test_cli_observe_spec_prints_fleet_view_and_golden_digest(golden,
                                                              capsys):
    from repro.__main__ import main
    assert main(["observe", "--spec",
                 str(SPEC_DIR / "planet_scale.json")]) == 0
    out = capsys.readouterr().out
    assert "Fleet telemetry (3 shard(s))" in out
    assert "shard-ap" in out
    assert f"Result digest: {golden['planet_scale']['result']}" in out


def test_cli_rejects_broken_shard_plan(tmp_path, capsys):
    from repro.__main__ import main
    data = json.loads((SPEC_DIR / "planet_scale.json").read_text())
    data["shards"]["shards"][0]["clusters"] = ["missing"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "ShardConfigError" in err
