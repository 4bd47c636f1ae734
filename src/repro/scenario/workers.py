"""The one worker seam: run spec JSON, and type how an attempt failed.

:class:`~repro.scenario.sweep.SweepRunner` and
:class:`~repro.service.core.ScenarioService` both execute specs here.
A caller hands an executor a batch of :class:`Attempt`\\ s and gets
back, in batch order, what the entry point :func:`run_spec` returned
or an :class:`ExecutionFailure` whose kind is the outcome table of
docs/SERVICE.md: ``crash`` (the worker died) and ``timeout`` (the
attempt outlived its deadline; its worker is killed) are worth a
retry, ``error`` (the run raised) is not, because a run is a pure
function of its spec JSON.  How often to retry stays with the callers.

:class:`InlineExecutor` runs attempts in process; :class:`PoolExecutor`
runs them on a warm process pool.  Both take one fault-injection hook,
a *crash plan* ``{key: n}`` that fails the first ``n`` attempts of the
job the caller keys as ``key`` (a sweep's grid index, the service's
spec fingerprint).  Faults live outside the specs, so a retried job
produces the byte-identical result a clean run would.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import (
    BrokenProcessPool,
    ProcessPoolExecutor,
)
from typing import Any, Hashable, Mapping, NamedTuple, Sequence

from .spec import ScenarioSpec

__all__ = ["Attempt", "ExecutionFailure", "InlineExecutor",
           "PoolExecutor", "checked_timeout", "run_spec",
           "run_spec_observed"]


class ExecutionFailure(RuntimeError):
    """One failed execution attempt, typed by how it failed.

    ``str()`` gives ``"<kind>: <message>"``, the failure text every
    caller records.

    Attributes:
        kind: ``"crash"`` (the worker process died), ``"timeout"``
            (the attempt outlived its deadline) or ``"error"`` (the
            run raised).
        message: What happened.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(kind, message)
        self.kind = kind
        self.message = message

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class Attempt(NamedTuple):
    """One execution attempt of a caller's job.

    Attributes:
        key: The caller's name for the job; the crash plan's key.
        spec_json: The spec to run, as JSON.
        number: Attempts of this job made before this one (0 first).
        run_id: Causal run id when the run is federated-observed;
            ``None`` runs unobserved.
    """

    key: Hashable
    spec_json: str
    number: int
    run_id: str | None = None


def run_spec(spec_json: str, run_id: str | None = None) -> Any:
    """The worker entry point: spec JSON in, result JSON out.

    With ``run_id`` set the run is observed (see
    :func:`run_spec_observed`) and the return value is ``(result JSON,
    telemetry JSON)``.  Module-level, so it pickles under every
    multiprocessing start method; passing JSON both ways makes every
    tier exercise the serialization contract the round-trip tests pin.
    """
    if run_id is not None:
        return run_spec_observed(spec_json, run_id)
    return ScenarioSpec.from_json(spec_json).run().to_json()


def run_spec_observed(spec_json: str, run_id: str) -> tuple[str, str]:
    """Run a spec with a worker-armed Observer; ship telemetry beside it.

    Returns ``(result JSON, telemetry JSON)`` where the telemetry is
    the run's deterministic
    :class:`~repro.observability.federation.TelemetrySnapshot` under
    the causal ``run_id``.  The capture is **invisible in the result**:
    unless the spec itself declared ``observer``/``slos`` (in which
    case the result carries its profile exactly as a plain
    ``spec.run()`` would), the observer is dropped before the result
    is compiled, so the result bytes are identical to an unobserved
    run — observation federates telemetry, it never perturbs digests.

    A sharded spec runs as a
    :class:`~repro.sim.sharding.ShardedScenarioRuntime` with per-shard
    capture; the shard fleet's merged metrics/profile/census are
    re-wrapped as this point's single snapshot, so a sweep over sharded
    scenarios federates exactly like any other sweep.
    """
    from ..observability.federation import TelemetrySnapshot
    from ..observability.observer import Observer

    spec = ScenarioSpec.from_json(spec_json)
    if spec.shards is not None:
        from ..sim.sharding import ShardedScenarioRuntime
        sharded = ShardedScenarioRuntime(spec, capture=True)
        result = sharded.execute()
        fleet = sharded.telemetry
        snapshot = TelemetrySnapshot(
            run_id=run_id, fingerprint=spec.fingerprint(), seed=spec.seed,
            metrics=fleet["metrics"], profile=fleet["profile"] or None,
            spans={"total": fleet["spans"]["total"],
                   "census": fleet["spans"]["census"]})
        return result.to_json(), snapshot.to_json()
    declared = spec.observer or spec.slos is not None
    observer = Observer()
    runtime = spec.build(observer=observer)
    runtime.drive()
    runtime.finalize()
    if not declared:
        runtime.observer = None
    result = runtime.result()
    observer.detach()
    snapshot = TelemetrySnapshot.capture(observer, run_id=run_id,
                                         fingerprint=spec.fingerprint(),
                                         seed=spec.seed)
    return result.to_json(), snapshot.to_json()


def checked_timeout(timeout: float | None) -> float | None:
    """``timeout`` if it is a usable deadline in seconds, else ValueError.

    ``None`` means no deadline.  NaN would report every attempt as hung
    and infinity overflows the wait, so both are refused.
    """
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be a positive, finite number of "
                         f"seconds or None, got {timeout!r}")
    return timeout


def _error(exc: Exception) -> ExecutionFailure:
    """The ``error`` outcome of a run that raised ``exc``."""
    return ExecutionFailure("error", f"{type(exc).__name__}: {exc}")


class InlineExecutor:
    """The in-process tier: deterministic, with no deadline.

    Args:
        crash_plan: Optional ``{key: n}`` map; the first ``n`` attempts
            of the job keyed ``key`` are a ``crash`` without running.
            Attempt numbering starts at 0, so ``{key: 1}`` fails once
            and succeeds on the retry.

    Attributes:
        injected_crashes: Attempts the crash plan has failed so far.
    """

    def __init__(self,
                 crash_plan: Mapping[Hashable, int] | None = None) -> None:
        self.crash_plan = dict(crash_plan) if crash_plan else {}
        if any(count < 0 for count in self.crash_plan.values()):
            raise ValueError("crash plan counts must be >= 0")
        self.injected_crashes = 0

    def _planned_crash(self, attempt: Attempt) -> bool:
        """Whether the crash plan fails ``attempt`` (and count it)."""
        if attempt.number < self.crash_plan.get(attempt.key, 0):
            self.injected_crashes += 1
            return True
        return False

    def settle(self, batch: Sequence[Attempt]) -> list[Any]:
        """Run a batch; per attempt, its result or an ExecutionFailure."""
        outcomes: list[Any] = []
        for attempt in batch:
            if self._planned_crash(attempt):
                outcomes.append(ExecutionFailure(
                    "crash", f"injected worker crash (job {attempt.key}, "
                             f"attempt {attempt.number})"))
                continue
            try:
                outcomes.append(run_spec(attempt.spec_json, attempt.run_id))
            except Exception as exc:  # noqa: BLE001 - typed for the caller
                outcomes.append(_error(exc))
        return outcomes

    def run(self, key: Hashable, spec_json: str, attempt: int,
            observe_run_id: str | None = None) -> Any:
        """Settle a batch of one: its result, or raise its failure.

        With ``observe_run_id`` set the result is ``(result JSON,
        telemetry JSON)``.
        """
        outcome, = self.settle([Attempt(key, spec_json, attempt,
                                        observe_run_id)])
        if isinstance(outcome, ExecutionFailure):
            raise outcome
        return outcome

    def close(self) -> None:
        """Release what the tier holds (nothing in process)."""


class PoolExecutor(InlineExecutor):
    """The pool tier: a warm process pool, forked at the first attempt.

    Args:
        workers: Worker processes in the pool.
        timeout: Wall-clock seconds a batch waits for its next attempt
            to settle.  When they pass, every unsettled attempt is a
            ``timeout`` and the pool's workers are killed, so a hung
            run cannot hold a process; ``None`` waits forever.
        crash_plan: As for :class:`InlineExecutor`, except that a
            planned attempt's worker really exits.
    """

    def __init__(self, workers: int = 1, timeout: float | None = 300.0,
                 crash_plan: Mapping[Hashable, int] | None = None) -> None:
        super().__init__(crash_plan)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.timeout = checked_timeout(timeout)
        self._pool: ProcessPoolExecutor | None = None

    def settle(self, batch: Sequence[Attempt]) -> list[Any]:
        """Run a batch on the pool; per attempt, result or failure.

        A crash or a timeout poisons the pool: it is torn down before
        this returns, and the next batch forks a fresh one.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        outcomes: list[Any] = [None] * len(batch)
        running: dict[Future, int] = {}
        for slot, attempt in enumerate(batch):
            call = ((os._exit, 17) if self._planned_crash(attempt)
                    else (run_spec, attempt.spec_json, attempt.run_id))
            try:
                running[self._pool.submit(*call)] = slot
            except BrokenProcessPool as exc:
                outcomes[slot] = ExecutionFailure(
                    "crash", f"worker pool broken at submit: {exc}")
        while running:
            done, _ = wait(running, timeout=self.timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                for slot in running.values():
                    outcomes[slot] = ExecutionFailure(
                        "timeout",
                        f"worker hung past the {self.timeout}s deadline")
                break
            for future in done:
                slot = running.pop(future)
                try:
                    outcomes[slot] = future.result()
                except BrokenProcessPool as exc:
                    outcomes[slot] = ExecutionFailure(
                        "crash", f"worker process died: {exc}")
                except Exception as exc:  # noqa: BLE001 - typed
                    outcomes[slot] = _error(exc)
        if any(isinstance(outcome, ExecutionFailure)
               and outcome.kind != "error" for outcome in outcomes):
            self._drop_pool(kill=True)
        return outcomes

    def _drop_pool(self, kill: bool) -> None:
        """Shut the pool down; with ``kill``, its workers die first.

        SIGKILL, not SIGTERM: a worker forked from ``python -m repro
        serve`` inherits its SIGTERM handler and would outlive
        ``terminate()``.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for process in list(pool._processes.values()):
                process.kill()
        pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._drop_pool(kill=False)
