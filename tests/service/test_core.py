"""The service core: lifecycle, resilience path, and determinism."""

import json
from pathlib import Path

import pytest

from repro.resilience import BreakerState
from repro.scenario import ScenarioSpec, SweepRunner
from repro.service import (ExecutionFailure, JobState, ScenarioService,
                           ServiceClock, ServiceConfig)

from .conftest import inline_service, service_spec

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


class TestServiceClock:
    def test_advances_monotonically(self):
        clock = ServiceClock()
        assert clock.now == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.now == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestSubmitLifecycle:
    def test_submit_pump_complete(self, service, spec):
        outcome = service.submit(spec.to_json(), tenant="acme")
        assert outcome.status == 202
        assert outcome.job_id == "run-000001"
        assert outcome.fingerprint == spec.fingerprint()
        assert service.queue_depth == 1
        service.pump()
        result = service.job_result(outcome.job_id)
        assert result.status == 200
        # The served digest is byte-identical to a direct serial run —
        # the determinism contract that makes the cache provably right.
        assert result.result_digest == spec.run().digest()
        status = service.job_status(outcome.job_id)
        assert status["state"] == "done"
        assert [state for _, state in status["transitions"]] == [
            "queued", "running", "done"]

    def test_resubmit_is_cache_hit(self, service, spec):
        first = service.submit(spec.to_json())
        service.pump()
        digest = service.job_result(first.job_id).result_digest
        again = service.submit(spec.to_json())
        assert again.status == 200
        assert again.cached
        assert again.result_digest == digest
        assert service.cache.statistics()["hits"] == 1.0
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.cache_hits"] == 1.0

    def test_result_by_digest(self, service, spec):
        service.submit(spec.to_json())
        service.pump()
        digest = service.job_result("run-000001").result_digest
        fetched = service.result_by_digest(digest)
        assert fetched.status == 200
        assert fetched.result_json is not None
        assert service.result_by_digest("nope").status == 404

    def test_invalid_spec_rejected(self, service):
        outcome = service.submit("{not json")
        assert outcome.status == 400
        assert "invalid scenario spec" in (outcome.error or "")
        assert service.submit('{"valid": "json"}').status == 400
        snapshot = service.metrics_snapshot()
        assert (snapshot["counters"]["service.rejected_invalid"]
                == 2.0)

    def test_non_object_spec_rejected(self, service):
        outcome = service.submit("[]")
        assert outcome.status == 400
        assert "must be a JSON object, not list" in (outcome.error or "")

    def test_unknown_ids(self, service):
        assert service.job_status("ghost") is None
        assert service.job_result("ghost").status == 404
        assert service.sweep_status("ghost") is None
        assert service.sweep_result("ghost").status == 404

    def test_pending_result_says_retry(self, service, spec):
        outcome = service.submit(spec.to_json())
        pending = service.job_result(outcome.job_id)
        assert pending.status == 409
        assert pending.retry_after > 0


def count_parses(monkeypatch) -> list:
    """Record every ``ScenarioSpec.from_json`` call from now on."""
    parsed = []
    from_json = ScenarioSpec.from_json

    def counting(text):
        parsed.append(text)
        return from_json(text)

    monkeypatch.setattr(ScenarioSpec, "from_json", staticmethod(counting))
    return parsed


class TestBodyMap:
    """A re-submitted body is matched by its SHA-256, not re-parsed."""

    def test_known_body_skips_the_parse(self, service, spec,
                                        monkeypatch):
        parses = count_parses(monkeypatch)
        body = spec.to_json()
        first = service.submit(body)
        assert first.status == 202 and len(parses) == 1
        service.pump()
        digest = service.job_result(first.job_id).result_digest
        parses.clear()    # the executor parses to run the job
        for _ in range(5):
            again = service.submit(body)
            assert again.status == 200 and again.cached
            assert again.result_digest == digest
            assert again.fingerprint == spec.fingerprint()
        assert parses == []
        # Every request still counts, hit or miss.
        assert service.cache.statistics()["hits"] == 5.0
        assert service.cache.statistics()["misses"] == 1.0
        counters = service.metrics_snapshot()["counters"]
        assert counters["service.submissions"] == 6.0
        assert counters["service.cache_hits"] == 5.0
        assert counters["service.requests_ok"] == 6.0
        assert [event["kind"] for event in service.events.records()] \
            == ["job-admitted", "job-done"] + ["job-cached"] * 5

    def test_reformatted_spec_parses_once_more(self, service, spec,
                                               monkeypatch):
        first = service.submit(spec.to_json())
        service.pump()
        digest = service.job_result(first.job_id).result_digest
        parses = count_parses(monkeypatch)
        reformatted = json.dumps(spec.to_dict(), indent=2)
        for _ in range(2):
            again = service.submit(reformatted)
            assert again.status == 200 and again.result_digest == digest
        assert parses == [reformatted]
        assert service.cache.statistics()["size"] == 1.0

    def test_invalid_body_is_parsed_and_rejected_every_time(
            self, service, monkeypatch):
        parses = count_parses(monkeypatch)
        for _ in range(2):
            assert service.submit("{not json").status == 400
        assert len(parses) == 2
        counters = service.metrics_snapshot()["counters"]
        assert counters["service.rejected_invalid"] == 2.0

    def test_map_is_an_lru_bounded_by_cache_capacity(self, monkeypatch):
        service = inline_service(cache_capacity=2)
        first, second = (service_spec(seed=seed).to_json()
                         for seed in (1, 2))
        service.submit(first)
        service.submit(second)
        service.pump()
        parses = count_parses(monkeypatch)
        reformatted = json.dumps(json.loads(first), indent=2)
        for body in (first, reformatted, first, second):
            assert service.submit(body).status == 200
        # ``second``, least recently used, was forgotten: it parses
        # again and still hits.
        assert parses == [reformatted, second]
        assert len(service._bodies) == 2
        assert all(len(key) == 64 for key in service._bodies)

    def test_known_body_with_evicted_result_runs_again(self, spec):
        service = inline_service(cache_capacity=2)
        body = spec.to_json()
        first = service.submit(body)
        service.pump()
        digest = service.job_result(first.job_id).result_digest
        # Sweep points enter the result cache but not the body map.
        service.submit_sweep(body, {"seeds": [1, 2]})
        service.pump()
        assert spec.fingerprint() not in service.cache
        again = service.submit(body)
        assert again.status == 202
        # One lookup per request: two submissions and two sweep points.
        assert service.cache.statistics()["misses"] == 4.0
        service.pump()
        assert service.job_result(again.job_id).result_digest == digest


class TestShedding:
    def test_tenant_quota_shed(self):
        service = inline_service(max_queue=10, tenant_quota=1)
        first = service.submit(service_spec(seed=1).to_json(),
                               tenant="acme")
        assert first.status == 202
        shed = service.submit(service_spec(seed=2).to_json(),
                              tenant="acme")
        assert shed.status == 429
        assert shed.reason == "tenant-quota"
        assert shed.retry_after > 0
        # Isolation: another tenant still gets in.
        assert service.submit(service_spec(seed=3).to_json(),
                              tenant="beta").status == 202

    def test_queue_full_shed_and_recovery(self):
        service = inline_service(max_queue=2, tenant_quota=2)
        assert service.submit(service_spec(seed=1).to_json()).status == 202
        assert service.submit(service_spec(seed=2).to_json()).status == 202
        shed = service.submit(service_spec(seed=3).to_json())
        assert shed.status == 429
        assert shed.reason == "queue-full"
        service.pump()  # drain; slots released at terminal states
        assert service.submit(service_spec(seed=3).to_json()).status == 202


class TestRetriesAndBreaker:
    def test_crash_is_retried_to_identical_digest(self, spec):
        service = inline_service(crash_plan={spec.fingerprint(): 1})
        outcome = service.submit(spec.to_json())
        service.pump()
        result = service.job_result(outcome.job_id)
        assert result.status == 200
        assert result.result_digest == spec.run().digest()
        job = service.jobs.get(outcome.job_id)
        assert job.attempts == 2
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.retries"] == 1.0
        assert (snapshot["counters"]["service.worker_failures"]
                == 1.0)

    def test_attempts_exhausted_fails_gracefully(self, spec):
        service = inline_service(max_attempts=2,
                                 crash_plan={spec.fingerprint(): 5})
        outcome = service.submit(spec.to_json())
        service.pump()
        job = service.jobs.get(outcome.job_id)
        assert job.state is JobState.FAILED
        assert "attempts exhausted" in job.error
        result = service.job_result(outcome.job_id)
        assert result.status == 410
        snapshot = service.metrics_snapshot()
        assert (snapshot["counters"]["service.requests_failed"]
                == 1.0)

    def test_retry_budget_exhaustion_denies_retry(self, spec):
        service = inline_service(retry_budget_initial=0.0,
                                 retry_budget_ratio=0.0,
                                 crash_plan={spec.fingerprint(): 1})
        outcome = service.submit(spec.to_json())
        service.pump()
        job = service.jobs.get(outcome.job_id)
        assert job.state is JobState.FAILED
        assert "retry budget exhausted" in job.error
        snapshot = service.metrics_snapshot()
        assert (snapshot["counters"]["service.retries_denied"]
                == 1.0)
        stats = service.tenant_stats("public")
        assert stats["retry_budget"]["denied"] == 1

    def test_breaker_transitions_are_seed_pinned(self):
        """CLOSED -> OPEN -> HALF_OPEN -> CLOSED on the service clock.

        Spec-driven and seed-pinned: three seed-variant specs, the
        first two with one injected crash each, trip a threshold-2
        breaker; the exact transition times are asserted, which only
        works because every clock step is deterministic.
        """
        specs = [service_spec(seed=seed) for seed in (1, 2, 3)]
        service = inline_service(
            breaker_threshold=2, breaker_recovery=3.0,
            crash_plan={specs[0].fingerprint(): 1,
                        specs[1].fingerprint(): 1})
        for spec in specs:
            assert service.submit(spec.to_json()).status == 202
        service.pump_once()          # t=0: crash #1
        service.pump_once()          # t=1: crash #2 -> breaker opens
        rejected = service.submit(service_spec(seed=9).to_json())
        assert rejected.status == 503
        assert rejected.reason == "breaker-open"
        assert rejected.retry_after > 0
        service.pump()               # waits out recovery, then drains
        assert [(time, state.value) for time, state in
                service.breaker.transitions] == [
            (1.0, "open"), (4.0, "half-open"), (4.0, "closed")]
        assert service.breaker.state is BreakerState.CLOSED
        for index in range(3):
            job = service.jobs.get(f"run-{index + 1:06d}")
            assert job.state is JobState.DONE
            assert job.result_digest == specs[index].run().digest()

    def _assert_failed_once_and_breaker_closed(self, service, job_id):
        job = service.jobs.get(job_id)
        assert job.state is JobState.FAILED
        assert job.attempts == 1
        assert job.error.startswith("error: ")
        counters = service.metrics_snapshot()["counters"]
        assert counters["service.requests_failed"] == 1.0
        assert counters.get("service.worker_failures", 0.0) == 0.0
        assert counters.get("service.retries", 0.0) == 0.0
        assert service.breaker.state is BreakerState.CLOSED
        assert service.tenant_stats("acme")["retry_budget"]["granted"] == 0
        other = json.loads((SPECS / "chaos_slo.json").read_text())
        assert service.submit(json.dumps(other), tenant="other").status \
            == 202

    def test_spec_whose_run_raises_fails_once_without_tripping(self):
        """A run is a pure function of its spec: one attempt, no trip."""
        data = json.loads((SPECS / "chaos_baseline.json").read_text())
        data["topology"]["clusters"][0]["machines_per_rack"] = 0
        service = inline_service()
        outcome = service.submit(json.dumps(data), tenant="acme")
        assert outcome.status == 202
        service.pump()
        self._assert_failed_once_and_breaker_closed(service,
                                                    outcome.job_id)

    def test_error_outcome_fails_once_without_tripping(self, spec):
        class RaisingExecutor:
            def run(self, fingerprint, spec_json, attempt,
                    observe_run_id=None):
                raise ExecutionFailure("error", "ValueError: bad spec")

            def close(self):
                pass

        service = ScenarioService(ServiceConfig(),
                                  executor=RaisingExecutor())
        outcome = service.submit(spec.to_json(), tenant="acme")
        service.pump_once()
        self._assert_failed_once_and_breaker_closed(service,
                                                    outcome.job_id)

    def test_deadline_expires_stale_jobs(self):
        service = inline_service(queue_deadline=2.0)
        for seed in range(1, 6):
            service.submit(service_spec(seed=seed).to_json())
        service.pump()
        states = [service.jobs.get(f"run-{i:06d}").state
                  for i in range(1, 6)]
        assert states == [JobState.DONE, JobState.DONE, JobState.DONE,
                          JobState.EXPIRED, JobState.EXPIRED]
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.expired"] == 2.0
        expired = service.job_result("run-000004")
        assert expired.status == 410
        assert expired.reason == "expired"


class TestSweeps:
    def test_sweep_digest_matches_offline_runner(self, spec):
        service = inline_service()
        outcome = service.submit_sweep(spec.to_json(),
                                       {"seeds": [1, 2]})
        assert outcome.status == 202
        assert outcome.extra["points"] == 2
        service.pump()
        status = service.sweep_status(outcome.sweep_id)
        assert status["done"]
        assert status["states"]["done"] == 2
        result = service.sweep_result(outcome.sweep_id)
        assert result.status == 200
        assert result.extra["complete"]
        offline = SweepRunner(spec).sweep(seeds=[1, 2])
        assert result.result_digest == offline.digest()

    def test_sweep_children_ride_the_cache(self, spec):
        service = inline_service()
        single = service.submit(spec.override({"seed": 1}).to_json())
        service.pump()
        assert service.job_result(single.job_id).status == 200
        outcome = service.submit_sweep(spec.to_json(), {"seeds": [1, 2]})
        cached_child = service.jobs.get(
            service.sweep_status(outcome.sweep_id)["children"][0])
        assert cached_child.state is JobState.DONE
        assert cached_child.cached
        service.pump()
        result = service.sweep_result(outcome.sweep_id)
        offline = SweepRunner(spec).sweep(seeds=[1, 2])
        assert result.result_digest == offline.digest()

    def test_sweep_gap_accounting(self, spec):
        crashed = spec.override({"seed": 2})
        service = inline_service(
            max_attempts=1, crash_plan={crashed.fingerprint(): 5})
        outcome = service.submit_sweep(spec.to_json(), {"seeds": [1, 2]})
        service.pump()
        result = service.sweep_result(outcome.sweep_id)
        assert result.status == 200
        assert not result.extra["complete"]
        assert result.extra["failed_points"] == 1
        report = json.loads(result.result_json)
        assert [entry["index"] for entry in report["failed"]] == [1]
        assert "crash" in report["failed"][0]["error"]
        # Slots were released for failed children too.
        assert service.admission.statistics()["occupancy"] == 0.0

    def test_sweep_admission_is_atomic(self, spec):
        service = inline_service(max_queue=3)
        shed = service.submit_sweep(spec.to_json(),
                                    {"seeds": [1, 2, 3, 4]})
        assert shed.status == 429
        assert service.queue_depth == 0
        assert service.admission.statistics()["occupancy"] == 0.0

    def test_sweep_pending_result(self, spec):
        service = inline_service()
        outcome = service.submit_sweep(spec.to_json(), {"seeds": [1]})
        pending = service.sweep_result(outcome.sweep_id)
        assert pending.status == 409
        assert pending.retry_after > 0


class TestIntrospection:
    def test_health_document(self, service, spec):
        service.submit(spec.to_json())
        health = service.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 1
        assert health["breaker"] == "closed"
        assert health["jobs"]["queued"] == 1
        service.pump()
        assert service.health()["jobs"]["done"] == 1

    def test_slo_report_green_after_clean_run(self, service, spec):
        service.submit(spec.to_json())
        service.pump()
        report = service.slo_report()
        availability = report["slo"]["service-availability"]
        assert availability["ok"] == 1.0
        assert availability["bad"] == 0.0
        assert report["alerts"] == []

    def test_metrics_snapshot_has_service_namespace(self, service):
        counters = service.metrics_snapshot()["counters"]
        for name in ("service.submissions", "service.requests_ok",
                     "service.requests_failed", "service.retries",
                     "service.expired"):
            assert name in counters

    def test_default_executor_is_pooled(self):
        service = ScenarioService(ServiceConfig(workers=1))
        try:
            assert service.executor.workers == 1
        finally:
            service.close()
