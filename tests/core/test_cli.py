"""Unit tests for the python -m repro command-line interface."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import ARTIFACTS, main

from ..scenario.bad_specs import BAD_SPECS, IDS, bad_spec

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "examples" / "specs" / "chaos_baseline.json"
SLO_SPEC_PATH = REPO_ROOT / "examples" / "specs" / "chaos_slo.json"
PLANET_SPEC_PATH = REPO_ROOT / "examples" / "specs" / "planet_scale.json"


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_no_args_lists_artifacts():
    code, out, _ = run_cli()
    assert code == 0
    for name in ARTIFACTS:
        assert name in out


def test_help_flag():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "Usage" in out


def test_each_artifact_prints_its_title():
    titles = {
        "table1": "TABLE 1",
        "table2": "TABLE 2",
        "table3": "TABLE 3",
        "table4": "TABLE 4",
        "table5": "TABLE 5",
        "figure2": "FIGURE 2",
        "figure3": "FIGURE 3",
        "figure4": "FIGURE 4",
        "figure5": "FIGURE 5",
        "curriculum": "C12",
    }
    for name, expected in titles.items():
        code, out, _ = run_cli(name)
        assert code == 0
        assert expected in out


def test_all_prints_everything():
    code, out, _ = run_cli("all")
    assert code == 0
    assert "TABLE 1" in out and "FIGURE 5" in out and "C12" in out


def test_unknown_artifact_fails_with_hint():
    code, out, err = run_cli("table9")
    assert code == 2
    assert "unknown artifact" in err
    assert "table5" in err


def test_run_spec_prints_summary_and_digest():
    code, out, _ = run_cli("run", str(SPEC_PATH))
    assert code == 0
    assert "makespan:" in out
    assert "fingerprint:" in out and "digest:" in out


def test_run_spec_writes_result(tmp_path):
    out_file = tmp_path / "result.json"
    code, _, _ = run_cli("run", str(SPEC_PATH), "--out", str(out_file))
    assert code == 0
    result = json.loads(out_file.read_text())
    assert result["schema"] == "scenario-result/v1"
    assert result["tasks_finished"] == result["tasks_total"]


def test_run_spec_usage_error():
    code, _, err = run_cli("run")
    assert code == 2
    assert "usage" in err


def test_sweep_spec_verify_serial(tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli("sweep", str(SPEC_PATH), "--seeds", "1,2",
                           "--policies", "fcfs,sjf", "--workers", "2",
                           "--verify-serial", "--out", str(out_file))
    assert code == 0
    assert "4 runs on 2 worker(s)" in out
    assert "serial re-run digest matches" in out
    report = json.loads(out_file.read_text())
    assert report["schema"] == "sweep-report/v1"
    assert len(report["runs"]) == 4


def test_sweep_spec_usage_error():
    code, _, err = run_cli("sweep")
    assert code == 2
    assert "usage" in err


def test_observe_spec_renders_operator_view():
    code, out, _ = run_cli("observe", "--spec", str(SLO_SPEC_PATH))
    assert code == 0
    assert "as the run saw itself" in out
    assert "SLO report" in out
    assert "Resilience summary:" in out
    assert "Result digest:" in out


def test_observe_without_spec_keeps_builtin_demo():
    code, out, _ = run_cli("observe")
    assert code == 0
    assert "Critical path" in out


def test_module_invocation():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "table2"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "The Age of Ecosystems" in result.stdout


def test_run_missing_spec_file_is_friendly():
    code, _, err = run_cli("run", "/no/such/spec.json")
    assert code == 2
    assert "cannot read spec file" in err
    assert "Traceback" not in err


def test_run_malformed_json_is_friendly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "not valid JSON" in err
    assert "Traceback" not in err


def test_run_invalid_spec_document_is_friendly(tmp_path):
    notspec = tmp_path / "notspec.json"
    notspec.write_text('{"valid": "json"}', encoding="utf-8")
    code, _, err = run_cli("run", str(notspec))
    assert code == 2
    assert "not a valid scenario spec" in err
    assert "docs/SCENARIOS.md" in err


def test_run_non_object_spec_is_friendly(tmp_path):
    notspec = tmp_path / "list.json"
    notspec.write_text("[]", encoding="utf-8")
    code, _, err = run_cli("run", str(notspec))
    assert code == 2
    assert "must be a JSON object, not list" in err
    assert "Traceback" not in err


def test_run_spec_with_non_object_section_is_friendly(tmp_path):
    data = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    data["scheduler"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "scheduler must be a JSON object, not list" in err
    assert "Traceback" not in err


def test_run_spec_with_non_numeric_max_time_is_friendly(tmp_path):
    data = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    data["max_time"] = "nan"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "max_time must be a number, not str" in err
    assert "Traceback" not in err


def test_run_spec_with_infinite_max_time_is_friendly(tmp_path):
    # Without a controller this spec would still drain and exit 0; with
    # one, an infinite bound would tick forever.
    data = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    data["max_time"] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert '"max_time": Infinity' in bad.read_text(encoding="utf-8")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "max_time must be finite and positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", BAD_SPECS, ids=IDS)
def test_run_spec_with_bad_field_is_friendly(tmp_path, case):
    # A bad field is refused before anything runs: no run, no traceback.
    _, name, updates, _, message = case
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_spec(name, updates)), encoding="utf-8")
    code, out, err = run_cli("run", str(bad))
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("args, message", [
    (("run", str(SPEC_PATH), "--out"), "missing value for --out"),
    (("sweep", str(SPEC_PATH), "--workers", "x"),
     "invalid sweep option --workers 'x'"),
    (("sweep", str(SPEC_PATH), "--seeds", "a,b"),
     "invalid sweep option --seeds 'a,b'"),
    (("sweep", str(SPEC_PATH), "--scale", "x"),
     "invalid sweep option --scale 'x'"),
    (("sweep", str(SPEC_PATH), "--workers", "0"),
     "invalid sweep option --workers '0': must be a finite number > 0"),
    (("sweep", str(SPEC_PATH), "--policies", "fcfs,bogus"),
     "invalid sweep option --policies 'fcfs,bogus': unknown queue policy"),
    (("observe", "--federated", "--workers", "x"),
     "invalid observe option --workers 'x'"),
    (("run", str(PLANET_SPEC_PATH), "--shard-workers", "2"),
     "usage: python -m repro run <spec.json> [--out <file>]"),
    (("serve", "--inline", "--max-queue", "0"),
     "invalid serve option --max-queue '0'"),
    (("serve", "--inline", "--port", "70000"),
     "invalid serve option --port '70000': must be in 0-65535"),
], ids=["run-out-missing", "sweep-workers-x", "sweep-seeds-ab",
        "sweep-scale-x", "sweep-workers-0", "sweep-policies-bogus",
        "observe-federated-workers-x", "run-shard-workers",
        "serve-max-queue-0", "serve-port-70000"])
def test_bad_option_is_one_line_and_exit_2(args, message):
    code, out, err = run_cli(*args)
    assert code == 2
    assert err.count("\n") == 1 and err.endswith("\n")
    assert message in err
    assert "Traceback" not in err
    assert out == ""


def test_sweep_missing_spec_file_is_friendly():
    code, _, err = run_cli("sweep", "/no/such/spec.json", "--seeds", "1")
    assert code == 2
    assert "cannot read spec file" in err


def test_observe_missing_spec_file_is_friendly():
    code, _, err = run_cli("observe", "--spec", "/no/such/spec.json")
    assert code == 2
    assert "cannot read spec file" in err


def test_serve_usage_errors():
    code, _, err = run_cli("serve", "--port")
    assert code == 2
    assert "missing value" in err
    code, _, err = run_cli("serve", "--bogus")
    assert code == 2
    assert "usage" in err
    code, _, err = run_cli("serve", "--port", "not-a-number")
    assert code == 2
    assert "invalid serve option" in err


def test_help_mentions_serve():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "serve" in out


def test_run_malformed_wfformat_document_is_friendly(tmp_path):
    # A spec whose embedded WfFormat document has a dependency cycle:
    # the importer's typed error must surface as `error: ...` naming
    # the offending task id, exit 2, no traceback.
    spec = {
        "schema": "scenario-spec/v1",
        "name": "bad-wf",
        "topology": {"clusters": [{"name": "c", "machines": 2}]},
        "workload": {"kind": "wfformat", "params": {"document": {
            "workflow": {"specification": {"tasks": [
                {"id": "x", "parents": ["y"]},
                {"id": "y", "parents": ["x"]},
            ], "files": []}}}}},
    }
    bad = tmp_path / "bad_wf.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert err.startswith("error:")
    assert "'x'" in err and "cyclic" in err
    assert "Traceback" not in err


def test_run_wfformat_negative_file_size_is_friendly(tmp_path):
    spec = {
        "schema": "scenario-spec/v1",
        "name": "bad-wf-size",
        "topology": {"clusters": [{"name": "c", "machines": 2}]},
        "workload": {"kind": "wfformat", "params": {"document": {
            "workflow": {"specification": {
                "tasks": [{"id": "t", "inputFiles": ["f"]}],
                "files": [{"id": "f", "sizeInBytes": -5}],
            }}}}},
    }
    bad = tmp_path / "bad_size.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "negative" in err and "'f'" in err
    assert "Traceback" not in err
