"""Spec serialization: JSON round-trips preserve identity and outcome."""

import dataclasses
import json

import pytest

from repro.scenario import (FAILURE_KINDS, WORKLOAD_KINDS, ClusterSpec,
                            FailureSpec, ScenarioSpec, TopologySpec,
                            WorkloadSpec)


def test_roundtrip_equality(full_spec):
    rehydrated = ScenarioSpec.from_json(full_spec.to_json())
    assert rehydrated == full_spec
    assert rehydrated.fingerprint() == full_spec.fingerprint()


def test_roundtrip_run_digest_identical(full_spec):
    # Satellite: a spec run directly and a spec run after a JSON
    # round-trip produce byte-identical results — including the chaos
    # summary and the SLO/alert records.
    direct = full_spec.run()
    rehydrated = ScenarioSpec.from_json(full_spec.to_json()).run()
    assert direct.chaos is not None
    assert direct.slo_report is not None
    assert direct.alerts is not None
    assert rehydrated.to_json() == direct.to_json()
    assert rehydrated.digest() == direct.digest()


def test_optional_sections_roundtrip_as_none(small_spec):
    data = small_spec.to_dict()
    for key in ("autoscaler", "failures", "retries", "checkpoints",
                "hedging", "shedding", "slos"):
        assert data[key] is None
    data["shards"] = None  # omitted by to_dict; null means absent too
    assert ScenarioSpec.from_dict(data) == small_spec


def test_to_json_is_deterministic(full_spec):
    assert full_spec.to_json() == full_spec.to_json()
    # Canonical ordering: keys sorted at every level.
    data = json.loads(full_spec.to_json())
    assert list(data) == sorted(data)


def test_fingerprint_tracks_content(small_spec):
    assert small_spec.fingerprint() != \
        small_spec.with_seed(small_spec.seed + 1).fingerprint()
    assert small_spec.fingerprint() == \
        ScenarioSpec.from_json(small_spec.to_json()).fingerprint()
    assert len(small_spec.fingerprint()) == 16


def test_fingerprint_uses_recipe_scheme(small_spec):
    recipe = small_spec.recipe()
    assert recipe.name == small_spec.name
    assert recipe.seed == small_spec.seed
    assert recipe.parameters == small_spec.to_dict()
    assert small_spec.fingerprint() == recipe.fingerprint()


def test_unknown_schema_rejected(small_spec):
    data = small_spec.to_dict()
    data["schema"] = "scenario-spec/v999"
    with pytest.raises(ValueError, match="unsupported scenario schema"):
        ScenarioSpec.from_dict(data)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown workload kind"):
        WorkloadSpec("no-such-kind", {})
    with pytest.raises(ValueError, match="unknown failure kind"):
        FailureSpec("no-such-kind", {})
    assert "uniform-tasks" in WORKLOAD_KINDS
    assert "sampled-bursts" in FAILURE_KINDS


def test_specs_are_frozen(small_spec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_spec.seed = 99


def test_override_dotted_paths(small_spec):
    derived = small_spec.override({"scheduler.queue": "sjf",
                                   "workload.params.n_tasks": 6,
                                   "horizon": 99.0})
    assert derived.scheduler.queue == "sjf"
    assert derived.workload.params["n_tasks"] == 6
    assert derived.horizon == 99.0
    # The base is untouched.
    assert small_spec.scheduler.queue == "fcfs"


def test_override_scale_axis(small_spec):
    doubled = small_spec.override({"scale": 2.0})
    assert doubled.topology.clusters[0].machines == 8
    floored = small_spec.override({"scale": 0.01})
    assert floored.topology.clusters[0].machines == 1


def test_override_bad_path_raises(small_spec):
    with pytest.raises(KeyError, match="does not resolve"):
        small_spec.override({"workload.nope.deeper": 1})


def test_validation_errors():
    topology = TopologySpec(clusters=(ClusterSpec("c", 2),))
    workload = WorkloadSpec("uniform-tasks", {"n_tasks": 1,
                                              "runtime": 5.0})
    with pytest.raises(ValueError, match="non-empty name"):
        ScenarioSpec(name="", topology=topology, workload=workload)
    with pytest.raises(ValueError, match="horizon"):
        ScenarioSpec(name="x", topology=topology, workload=workload,
                     horizon=0.0)
    with pytest.raises(ValueError, match="duration"):
        ScenarioSpec(name="x", topology=topology, workload=workload,
                     duration=-1.0)


@pytest.mark.parametrize("key, token", [
    ("max_time", '"nan"'), ("max_time", "NaN"), ("max_time", "-5"),
    ("max_time", "true"), ("horizon", "true"), ("horizon", "NaN"),
    ("horizon", '"1000"'), ("duration", "true"), ("duration", "NaN"),
    ("availability_slo", "true"), ("availability_slo", '"0.5"'),
    ("injection_jitter", "true"), ("injection_jitter", "NaN"),
    ("max_time", "Infinity"), ("horizon", "Infinity"),
    ("duration", "Infinity")])
def test_time_and_rate_fields_must_be_numbers_in_range(small_spec, key,
                                                       token):
    # A string, a bool or NaN must fail at load, not at run time, a
    # non-positive time span must not run as a no-op, and an infinite
    # one must not let a periodic controller tick forever.
    data = small_spec.to_dict()
    data[key] = json.loads(token)
    with pytest.raises(ValueError, match=key):
        ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("token", ["[]", '"x"', "3"])
@pytest.mark.parametrize("section", [
    "topology", "workload", "scheduler", "autoscaler", "failures",
    "retries", "checkpoints", "hedging", "shedding", "slos", "shards",
    "workload.params"])
def test_sections_must_be_objects(full_spec, section, token):
    # A list, string or number in place of a section must name the
    # section in a ValueError: not crash with AttributeError, and not
    # load as the section's defaults (an empty list once turned the
    # retry policy on).
    data = full_spec.to_dict()
    if section == "workload.params":
        data["workload"]["params"] = json.loads(token)
    else:
        data[section] = json.loads(token)
    with pytest.raises(ValueError,
                       match=f"{section} must be a JSON object"):
        ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("token", ['"x"', "1.5", "true", "null"])
def test_seed_must_be_an_integer(small_spec, token):
    data = small_spec.to_dict()
    data["seed"] = json.loads(token)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ScenarioSpec.from_dict(data)
