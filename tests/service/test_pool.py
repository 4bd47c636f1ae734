"""The service on a real worker pool: crashes and hangs end cleanly."""

import multiprocessing

from repro.resilience import BreakerState
from repro.scenario import ScenarioSpec
from repro.service import (JobState, PoolExecutor, ScenarioService,
                           ServiceConfig)

from .conftest import service_spec


def slow_spec() -> ScenarioSpec:
    """A spec whose run takes seconds (~7 s on a 2-vCPU x86_64 host)."""
    return service_spec().override({"workload.params.n_tasks": 60000,
                                    "horizon": 1e9})


def run_one(service: ScenarioService, spec: ScenarioSpec):
    """Submit ``spec``, drain the queue, and return its job."""
    outcome = service.submit(spec.to_json())
    assert outcome.status == 202
    service.pump()
    return service.jobs.get(outcome.job_id)


def test_clean_job_matches_a_direct_run(spec):
    service = ScenarioService(ServiceConfig(workers=1))
    try:
        job = run_one(service, spec)
        assert job.state is JobState.DONE
        assert job.result_digest == spec.run().digest()
    finally:
        service.close()


def test_dead_worker_is_replaced_and_the_job_finishes(spec):
    executor = PoolExecutor(workers=1, crash_plan={spec.fingerprint(): 1})
    service = ScenarioService(ServiceConfig(workers=1), executor=executor)
    try:
        job = run_one(service, spec)
        assert executor.injected_crashes == 1
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert job.result_digest == spec.run().digest()
        counters = service.metrics_snapshot()["counters"]
        assert counters["service.worker_failures"] == 1.0
        assert service.breaker.state is BreakerState.CLOSED
    finally:
        service.close()


def test_hung_job_fails_after_its_attempts_with_no_worker_left():
    service = ScenarioService(ServiceConfig(workers=1, worker_timeout=0.2,
                                            max_attempts=3))
    try:
        job = run_one(service, slow_spec())
        assert job.state is JobState.FAILED
        assert job.attempts == 3
        assert job.error.startswith("timeout: ")
        assert multiprocessing.active_children() == []
    finally:
        service.close()
