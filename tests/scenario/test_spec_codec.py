"""The spec codec: one field-driven decoder for every scenario document.

Decode is where outside input arrives.  It must either refuse a
document with a ``ValueError`` (a ``SpecError`` naming the field for a
wrong type or shape, a missing field or an unknown one) or return a
spec that round-trips to an equal spec with an equal fingerprint.  No
other exception may escape.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.scenario import ScenarioResult, ScenarioSpec, SpecError

from .bad_specs import BAD_SPECS, IDS, bad_spec

ROOT = Path(__file__).resolve().parents[2]
GALLERIES = (ROOT / "examples" / "specs",
             ROOT / "benchmarks" / "e2e" / "specs")

#: Each declared field path is set to each of these in turn.
FUZZ_VALUES = (None, True, -1, 0.5, "x", [], {})


def gallery_specs() -> dict[str, str]:
    """The distinct scenario specs of both galleries: name -> text."""
    texts: dict[str, str] = {}
    for gallery in GALLERIES:
        for path in sorted(gallery.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            data = json.loads(text)
            if (data.get("schema") == "scenario-spec/v1"
                    and text not in texts.values()):
                texts[path.name] = text
    return texts


SPECS = gallery_specs()


def field_paths(document, prefix=()):
    """Every declared field path of ``document`` and of the documents
    and list items it holds; free-form ``params`` stay closed."""
    for spec_field in dataclasses.fields(document):
        path = prefix + (spec_field.name,)
        yield path
        value = getattr(document, spec_field.name)
        if dataclasses.is_dataclass(value):
            yield from field_paths(value, path)
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                yield path + (index,)
                if dataclasses.is_dataclass(item):
                    yield from field_paths(item, path + (index,))


def kind(value) -> str:
    """The JSON kind of ``value`` (integers and floats are one kind)."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def decode(data: dict, where: str) -> str:
    """``"refused"``, ``"invalid"`` or ``"spec"`` (round trip checked)."""
    try:
        spec = ScenarioSpec.from_dict(data)
    except SpecError:
        return "refused"
    except ValueError:
        return "invalid"
    except Exception as exc:  # noqa: BLE001 - the oracle's failure
        pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec, where
    assert again.fingerprint() == spec.fingerprint(), where
    return "spec"


def test_galleries_hold_nine_distinct_specs():
    assert len(SPECS) == 9


@pytest.mark.parametrize("name", sorted(SPECS))
def test_decode_type_fuzz(name):
    data = json.loads(SPECS[name])
    paths = list(field_paths(ScenarioSpec.from_dict(data)))
    assert len(paths) >= 30
    for path in paths:
        node = data
        for part in path[:-1]:
            node = node[part]
        key = path[-1]
        absent = isinstance(node, dict) and key not in node
        original = None if absent else node[key]
        for value in FUZZ_VALUES:
            node[key] = value
            where = f"{name}: {path} = {value!r}"
            outcome = decode(data, where)
            if (original is not None and value is not None
                    and kind(value) != kind(original)):
                assert outcome == "refused", where
        if isinstance(node, dict):
            del node[key]
            decode(data, f"{name}: {path} deleted")
            node["x_unknown"] = 1
            assert decode(data, f"{name}: {path} sibling") == "refused"
            del node["x_unknown"]
            if not absent:
                node[key] = original
        else:
            del node[key]
            decode(data, f"{name}: {path} deleted")
            node.insert(key, original)
    assert json.loads(SPECS[name]) == data


@pytest.mark.parametrize("case", BAD_SPECS, ids=IDS)
def test_bad_gallery_specs_are_refused_at_load(case):
    _, name, updates, error, message = case
    with pytest.raises(error, match=re.escape(message)):
        ScenarioSpec.from_dict(bad_spec(name, updates))


@pytest.mark.parametrize("updates, message", [
    ({"scheduler.queu": "sjf"}, "scheduler.queu is not a SchedulerSpec"),
    ({"max_tme": 5}, "max_tme is not a ScenarioSpec field"),
])
def test_override_typo_is_refused(small_spec, updates, message):
    # A misspelled axis must not run the base experiment in silence.
    with pytest.raises(SpecError, match=message):
        small_spec.override(updates)


def test_missing_required_field_is_named(small_spec):
    data = small_spec.to_dict()
    del data["topology"]["clusters"][0]["machines"]
    with pytest.raises(SpecError,
                       match=re.escape("topology.clusters[0].machines "
                                       "is required")):
        ScenarioSpec.from_dict(data)


def test_result_decodes_through_the_codec():
    result = ScenarioResult(name="r", seed=1, fingerprint="f",
                            sim_time=2.0, events_processed=3, makespan=2,
                            tasks_total=2, tasks_finished=1,
                            alerts=[{"rule": "fast"}])
    data = result.to_dict()
    assert data["schema"] == "scenario-result/v1"
    assert "shards" not in data
    assert ScenarioResult.from_dict(data) == result
    for key, value, message in [
            ("events_processed", 3.0, "events_processed must be an integer"),
            ("alerts", {}, "alerts must be a JSON list"),
            ("extra", 1, "extra is not a ScenarioResult field"),
            ("schema", "scenario-spec/v1", "unsupported scenario schema")]:
        with pytest.raises(SpecError, match=message):
            ScenarioResult.from_dict({**data, key: value})
