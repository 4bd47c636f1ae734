"""Federated sweep observation: worker capture, merge determinism.

The acceptance contract of the federation plane, pinned three ways:

- the same ≥4-point grid run serially, on 2 workers, and on 8 workers
  must produce a **byte-identical merged telemetry snapshot** (same
  SHA-256 fleet digest, pinned in ``goldens/federation.json``);
- turning observation on must not change a single result byte — the
  observed report minus its ``telemetry`` section equals the
  unobserved report exactly;
- a spec that *declares* its own observer/SLOs keeps its profile in
  the result under federated capture, byte-identical to a plain run.
"""

import json
from pathlib import Path

import pytest

from repro.observability import science_digest
from repro.observability.federation import (
    TelemetrySnapshot,
    fleet_digest,
)
from repro.scenario import SweepReport, SweepRunner
from repro.scenario.sweep import run_spec_observed

from .conftest import full_spec, small_spec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "federation.json"
SEEDS = [1, 2, 3, 4]


@pytest.fixture(scope="module", name="golden")
def golden_fixture() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def observed_report(workers: int) -> "SweepReport":
    return SweepRunner(small_spec(), workers=workers,
                       observe=True).sweep(seeds=SEEDS)


class TestMergedSnapshotDeterminism:
    def test_serial_two_and_eight_workers_digest_identically(self, golden):
        digests = set()
        for workers in (1, 2, 8):
            report = observed_report(workers)
            assert report.telemetry is not None
            assert report.telemetry["runs"] == [
                f"point-{i:05d}" for i in range(len(SEEDS))]
            digests.add((science_digest(report.telemetry),
                         fleet_digest(report.telemetry)))
        assert digests == {(golden["fleet_science"], golden["fleet_digest"])}

    def test_observed_report_digest_pinned(self, golden):
        report = observed_report(1)
        assert report.science_digest() == golden["report_science"]
        assert report.digest() == golden["report_digest"]

    def test_report_roundtrip_preserves_telemetry(self):
        report = observed_report(1)
        clone = SweepReport.from_json(report.to_json())
        assert clone.telemetry == report.telemetry
        assert clone.digest() == report.digest()


class TestResultsUnchangedByObservation:
    def test_observed_minus_telemetry_equals_unobserved(self):
        observed = observed_report(1).to_dict()
        observed.pop("telemetry")
        unobserved = SweepRunner(small_spec(), workers=1,
                                 observe=False).sweep(seeds=SEEDS)
        assert observed == unobserved.to_dict()

    def test_unobserved_report_carries_no_telemetry_key(self):
        report = SweepRunner(small_spec(), workers=1).sweep(seeds=SEEDS)
        assert report.telemetry is None
        assert "telemetry" not in report.to_dict()

    def test_declared_observer_spec_keeps_profile_in_result(self):
        """full_spec declares SLOs: its result must match a plain run."""
        spec = full_spec()
        result_json, telemetry_json = run_spec_observed(
            spec.to_json(), "point-00000")
        assert result_json == spec.run().to_json()
        snapshot = TelemetrySnapshot.from_json(telemetry_json)
        assert snapshot.fingerprint == spec.fingerprint()
        assert snapshot.spans["total"] > 0


class TestWorkerCapture:
    def test_run_ids_are_causal_grid_indexes(self):
        report = observed_report(2)
        by_run = report.telemetry["spans"]["by_run"]
        assert list(by_run) == sorted(by_run)
        assert set(report.telemetry["runs"]) == set(by_run)

    def test_fleet_counters_sum_over_runs(self):
        report = observed_report(1)
        per_run_total = 0.0
        for index, point in enumerate(report.points):
            _, telemetry_json = run_spec_observed(
                SweepRunner(small_spec()).grid(
                    seeds=SEEDS)[index].spec.to_json(),
                f"point-{index:05d}")
            snapshot = TelemetrySnapshot.from_json(telemetry_json)
            per_run_total += snapshot.metrics["counters"][
                "scheduler.tasks_completed"]
        merged = report.telemetry["metrics"]["counters"]
        assert merged["scheduler.tasks_completed"] == per_run_total
