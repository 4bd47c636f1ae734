"""Sweep worker-failure hardening: retries, gaps, and determinism.

The contract under test: a sweep point whose worker crashes (an
injected crash in process, or a real death on the pool) is retried
deterministically on a fresh worker, and a retried sweep's report
digest is byte-identical to a clean run's — because fault injection
lives in the runner, never in the specs.
Points that fail beyond the retry allowance land in
``SweepReport.failed`` with explicit gap accounting instead of
aborting the merge.
"""

import pytest

from repro.scenario import ScenarioSpec, SweepReport, SweepRunner

from .conftest import small_spec

SEEDS = (1, 2)


def clean_report() -> SweepReport:
    return SweepRunner(small_spec()).sweep(seeds=SEEDS)


class TestCrashRetryDeterminism:
    def test_injected_crash_retries_to_identical_digest(self):
        crashy = SweepRunner(small_spec(), crash_plan={0: 1})
        report = crashy.sweep(seeds=SEEDS)
        assert report.complete
        assert report.digest() == clean_report().digest()

    def test_every_point_crashing_once_still_matches(self):
        crashy = SweepRunner(small_spec(),
                             crash_plan={0: 1, 1: 1})
        report = crashy.sweep(seeds=SEEDS)
        assert report.complete
        assert report.digest() == clean_report().digest()

    def test_real_worker_death_in_parallel_pool(self):
        """On the pool, a planned crash kills the worker process."""
        crashy = SweepRunner(small_spec(), workers=2,
                             crash_plan={1: 1})
        report = crashy.sweep(seeds=SEEDS)
        assert report.complete
        assert report.digest() == clean_report().digest()


class TestGapAccounting:
    def test_exhausted_retries_become_gap_records(self):
        runner = SweepRunner(small_spec(), retries=1,
                             crash_plan={0: 5})
        report = runner.sweep(seeds=SEEDS)
        assert not report.complete
        assert report.failed_indexes() == {0}
        record = report.failed[0]
        assert record["index"] == 0
        assert record["attempts"] == 2
        assert "crash" in record["error"].lower()
        assert record["fingerprint"]
        # rows() only tabulates completed points.
        assert [label for label, _ in report.rows()] == ["seed=2"]

    def test_no_retries_fails_fast(self):
        runner = SweepRunner(small_spec(), retries=0,
                             crash_plan={0: 1})
        report = runner.sweep(seeds=SEEDS)
        assert not report.complete
        assert report.failed[0]["attempts"] == 1

    def test_failed_report_round_trips(self):
        runner = SweepRunner(small_spec(), retries=0,
                             crash_plan={0: 1})
        report = runner.sweep(seeds=SEEDS)
        clone = SweepReport.from_json(report.to_json())
        assert clone.digest() == report.digest()
        assert clone.failed == report.failed

    def test_clean_report_serializes_without_failed_key(self):
        """Golden preservation: clean sweeps keep their exact bytes."""
        assert "failed" not in clean_report().to_dict()

    def test_assemble_requires_outcome_or_gap(self):
        runner = SweepRunner(small_spec())
        points = runner.grid(seeds=SEEDS)
        (_, result_json), = [
            (0, ScenarioSpec.from_json(points[0].spec.to_json())
                .run().to_json())]
        with pytest.raises(ValueError, match="neither an outcome"):
            SweepReport.assemble(runner.base, points,
                                 [(0, result_json)])


class TestRunnerValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(small_spec(), retries=-1)
