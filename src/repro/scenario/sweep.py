"""Process-parallel parameter sweeps over scenario specs.

The ROADMAP's scaling step: parameter studies across seeds, policies,
and capacity are embarrassingly parallel, and a
:class:`SweepRunner` fans a spec grid across process workers.
Determinism is preserved end to end:

- every grid point is an explicit :class:`ScenarioSpec` derived from
  the base spec via :meth:`~repro.scenario.spec.ScenarioSpec.override`;
- workers receive the spec *as JSON* and return the result *as JSON*
  (each parallel run therefore also exercises the rehydration
  contract);
- the merge sorts by grid index, so worker completion order never
  shows through;
- the :class:`SweepReport` serializes via the deterministic JSON
  encoder, carries no wall-clock data, and digests identically whether
  the sweep ran serially or on any number of workers.

Worker failures are part of the contract, not an abort: a point whose
run raises (or whose worker process dies) is retried deterministically
on a fresh worker, and a point that still fails is surfaced in
:attr:`SweepReport.failed` with explicit gap accounting instead of
blowing up the merge.  Because a spec run is a pure function of its
JSON form, a retried point produces the byte-identical result a clean
run would have — so retries never perturb the report digest.

``tests/scenario`` pins serial-vs-parallel digest equality, a golden
sweep digest, and crash-retry digest identity; CI re-checks a 2x2
grid on 2 workers.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import (
    BrokenProcessPool,
    ProcessPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..observability.export import dumps_deterministic
from ..observability.federation import TelemetryMerge
from .result import ScenarioResult
from .spec import ScenarioSpec

__all__ = ["SweepPoint", "SweepReport", "SweepRunner", "WorkerCrash",
           "run_spec_observed", "sweep"]


class WorkerCrash(RuntimeError):
    """An injected (or real) worker-tier failure for one sweep point.

    Raised by the fault-injection hook to emulate a worker that died
    mid-point; the runner treats it exactly like any other per-point
    exception: deterministic retry, then gap accounting.
    """


def _run_spec_payload(payload: tuple[int, str]) -> tuple[int, str]:
    """Worker entry point: rehydrate a spec from JSON, run, emit JSON.

    Module-level so it pickles under every multiprocessing start
    method.  Passing JSON both ways makes the parallel path exercise
    the same serialization contract the round-trip tests pin.
    """
    index, spec_json = payload
    result = ScenarioSpec.from_json(spec_json).run()
    return index, result.to_json()


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


def _run_spec_guarded(
        payload: tuple[int, str, int, dict[int, int] | None, str | None],
        ) -> tuple[int, bool, str, str | None]:
    """Fault-tolerant worker entry point: never raises for a bad spec run.

    Returns ``(index, ok, result-or-error, telemetry-or-None)``.  The
    optional crash plan (``{index: failures_remaining}``)
    deterministically fails the first ``n`` attempts of a point — the
    chaos hook the injected-crash determinism tests and the service
    drill both use.  A plan entry of ``-1`` hard-exits the process (a
    *real* worker crash, exercising the broken-pool recovery path).
    The final payload element is the causal run id when the point runs
    under federated observation (``None`` runs unobserved).
    """
    index, spec_json, attempt, crash_plan, run_id = payload
    try:
        if crash_plan is not None:
            budget = crash_plan.get(index, 0)
            if budget == -1 and attempt == 0:
                import os
                os._exit(17)  # simulate a segfaulting worker
            if attempt < budget:
                raise WorkerCrash(
                    f"injected worker crash (point {index}, "
                    f"attempt {attempt})")
        if run_id is not None:
            result_json, telemetry_json = run_spec_observed(spec_json,
                                                            run_id)
            return index, True, result_json, telemetry_json
        _, result_json = _run_spec_payload((index, spec_json))
        return index, True, result_json, None
    except SystemExit:  # pragma: no cover - re-raise hard exits
        raise
    except BaseException as exc:  # noqa: BLE001 - the gap record needs it
        return index, False, f"{type(exc).__name__}: {exc}", None


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the derived spec and the overrides that made it."""

    index: int
    spec: ScenarioSpec
    overrides: dict[str, Any]

    def label(self) -> str:
        """Human-readable axis summary (``seed=3 queue=sjf``)."""
        if not self.overrides:
            return "base"
        return " ".join(f"{key.split('.')[-1]}={value}"
                        for key, value in sorted(self.overrides.items()))


@dataclass
class SweepReport:
    """The merged, order-independent outcome of one sweep.

    ``runs`` is sorted by grid index; :meth:`to_json` and
    :meth:`digest` contain no execution details (worker count, wall
    time), so a serial run and any parallel run of the same grid
    produce the byte-identical report.  ``failed`` carries the gap
    accounting for points that failed even after retry — it is only
    serialized when non-empty, so a clean sweep's bytes (and goldens)
    are untouched by its existence.
    """

    base_fingerprint: str
    points: list[dict[str, Any]]
    runs: list[ScenarioResult]
    failed: list[dict[str, Any]] = field(default_factory=list)
    telemetry: dict[str, Any] | None = None
    workers: int = 1  # execution detail; excluded from the serialized form
    elapsed_s: float = 0.0  # wall time; excluded from the serialized form

    @property
    def complete(self) -> bool:
        """Whether every grid point produced a result."""
        return not self.failed

    def failed_indexes(self) -> set[int]:
        """Grid indexes of points that failed after exhausting retries."""
        return {entry["index"] for entry in self.failed}

    def to_dict(self) -> dict:
        """JSON-ready plain data (deterministic content only).

        ``failed`` appears only when the sweep has gaps, so a clean
        report keeps the exact bytes (and digests) it had before gap
        accounting existed.
        """
        data = {
            "schema": "sweep-report/v1",
            "base_fingerprint": self.base_fingerprint,
            "points": self.points,
            "runs": [run.to_dict() for run in self.runs],
        }
        if self.failed:
            data["failed"] = self.failed
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepReport":
        """Rehydrate a report from :meth:`to_dict` output."""
        if data.get("schema") != "sweep-report/v1":
            raise ValueError(f"unsupported sweep schema "
                             f"{data.get('schema')!r}")
        return cls(base_fingerprint=data["base_fingerprint"],
                   points=list(data["points"]),
                   runs=[ScenarioResult.from_dict(r)
                         for r in data["runs"]],
                   failed=list(data.get("failed", ())),
                   telemetry=data.get("telemetry"))

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace)."""
        return dumps_deterministic(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Rehydrate a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def rows(self) -> list[tuple[str, dict[str, float]]]:
        """(label, flat summary) per completed run, for tabulation.

        Failed points are excluded here; their gap records live in
        :attr:`failed`.
        """
        gaps = self.failed_indexes()
        completed = [point for point in self.points
                     if point["index"] not in gaps]
        return [(point["label"], run.summary())
                for point, run in zip(completed, self.runs)]

    @classmethod
    def assemble(cls, base: ScenarioSpec, points: Sequence[SweepPoint],
                 outcomes: Sequence[tuple[int, str]],
                 workers: int = 1,
                 failures: Sequence[Mapping[str, Any]] = ()) -> "SweepReport":
        """Merge worker outcomes into the deterministic report.

        ``outcomes`` is ``(grid index, result JSON)`` pairs in *any*
        order — the merge sorts by grid index, which is what makes the
        report independent of worker scheduling.  ``failures`` carries
        gap records (``index`` / ``label`` / ``fingerprint`` /
        ``error`` / ``attempts``) for points with no outcome.  Exposed
        so every execution strategy (the in-process serial path, the
        worker pool, a benchmark's cold-process loop) shares one merge.
        """
        by_index = {index: result_json for index, result_json in outcomes}
        failed = sorted((dict(entry) for entry in failures),
                        key=lambda entry: entry["index"])
        missing = [point.index for point in points
                   if point.index not in by_index
                   and point.index not in {f["index"] for f in failed}]
        if missing:
            raise ValueError(
                f"points {missing} have neither an outcome nor a gap "
                f"record; the merge would silently drop them")
        runs = [ScenarioResult.from_json(by_index[point.index])
                for point in points if point.index in by_index]
        point_rows = [{"index": point.index,
                       "fingerprint": point.spec.fingerprint(),
                       "label": point.label(),
                       "overrides": _jsonable_overrides(point.overrides)}
                      for point in points]
        return cls(base_fingerprint=base.fingerprint(),
                   points=point_rows, runs=runs, failed=failed,
                   workers=workers)


class SweepRunner:
    """Fan a grid of scenario specs across processes; merge determinate.

    Args:
        base: The spec every grid point derives from.
        workers: Process count; ``1`` runs serially in-process (but
            still through the JSON rehydration path, so serial and
            parallel results are comparable byte for byte).
        retries: Deterministic re-runs granted to a failed point
            before it becomes a gap record (default 1 — the "retry
            once on a fresh worker" contract).
        point_timeout: Optional wall-clock seconds to wait for one
            point before declaring its worker hung.  A timed-out point
            is retried like a crashed one.  ``None`` (the default)
            waits indefinitely; timeouts are an execution detail and
            never enter the report bytes.
        crash_plan: Optional fault-injection plan
            (``{point index: n}``): the first ``n`` attempts of that
            point raise :class:`WorkerCrash`; ``-1`` hard-kills the
            worker process on the first attempt.  For chaos drills and
            determinism tests — retried points digest identically to a
            clean run because spec runs are pure functions of their
            JSON.
        observe: Federated observation: every worker arms an
            :class:`~repro.observability.observer.Observer` around its
            point, ships the deterministic telemetry snapshot back
            beside the result, and the runner folds all snapshots into
            one fleet view at :attr:`SweepReport.telemetry`.  Causal
            run ids are ``point-<index:05d>`` — lexicographic order is
            grid order — so the merged view is byte-identical for any
            worker count or completion order.  Result bytes stay
            identical to an unobserved sweep.
    """

    def __init__(self, base: ScenarioSpec, workers: int = 1,
                 retries: int = 1, point_timeout: float | None = None,
                 crash_plan: Mapping[int, int] | None = None,
                 observe: bool = False) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive when given")
        self.base = base
        self.workers = workers
        self.retries = retries
        self.point_timeout = point_timeout
        self.crash_plan = dict(crash_plan) if crash_plan else None
        self.observe = observe

    # ------------------------------------------------------------------
    # Grid construction
    # ------------------------------------------------------------------
    def grid(self, seeds: Sequence[int] = (),
             policies: Sequence[str] = (),
             scale: Sequence[float] = (),
             overrides: Sequence[Mapping[str, Any]] = ()) -> \
            list[SweepPoint]:
        """The cartesian grid of sweep points, in deterministic order.

        Axes: ``seeds`` (root seed), ``policies`` (queue policy),
        ``scale`` (multiplies every cluster's machine count), and
        ``overrides`` (arbitrary dotted-path update mappings).  Empty
        axes contribute the base value.  Iteration order is seeds,
        then policies, then scale, then overrides — index 0 is the
        first combination.
        """
        seed_axis: Sequence[Any] = list(seeds) or [None]
        policy_axis: Sequence[Any] = list(policies) or [None]
        scale_axis: Sequence[Any] = list(scale) or [None]
        override_axis: Sequence[Any] = list(overrides) or [None]
        points = []
        index = 0
        for seed in seed_axis:
            for policy in policy_axis:
                for factor in scale_axis:
                    for extra in override_axis:
                        updates: dict[str, Any] = {}
                        if seed is not None:
                            updates["seed"] = seed
                        if policy is not None:
                            updates["scheduler.queue"] = policy
                        if factor is not None:
                            updates["scale"] = factor
                        if extra:
                            updates.update(extra)
                        spec = (self.base.override(updates) if updates
                                else self.base)
                        points.append(SweepPoint(index=index, spec=spec,
                                                 overrides=updates))
                        index += 1
        return points

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> SweepReport:
        """Execute every point; return the merged deterministic report.

        Per-point failures never abort the sweep: a point whose run
        raises — or whose worker process dies or hangs — is retried up
        to ``retries`` times on a fresh worker, and a point that still
        fails lands in :attr:`SweepReport.failed` with its error and
        attempt count.
        """
        if not points:
            raise ValueError("the sweep grid is empty")
        spec_json = {point.index: point.spec.to_json() for point in points}
        attempts = {point.index: 0 for point in points}
        errors: dict[int, str] = {}
        outcomes: list[tuple[int, str]] = []
        telemetry: dict[int, str] = {}
        pending = [point.index for point in points]
        while pending:
            wave = [(index, spec_json[index], attempts[index],
                     self.crash_plan,
                     f"point-{index:05d}" if self.observe else None)
                    for index in pending]
            for index in pending:
                attempts[index] += 1
            if self.workers == 1:
                settled = [_run_spec_guarded(payload) for payload in wave]
            else:
                settled = self._run_wave_parallel(wave)
            retry: list[int] = []
            for index, ok, payload, telemetry_json in settled:
                if ok:
                    outcomes.append((index, payload))
                    errors.pop(index, None)
                    if telemetry_json is not None:
                        telemetry[index] = telemetry_json
                else:
                    errors[index] = payload
                    if attempts[index] <= self.retries:
                        retry.append(index)
            retry.sort()
            pending = retry
        failures = [{"index": point.index,
                     "label": point.label(),
                     "fingerprint": point.spec.fingerprint(),
                     "error": errors[point.index],
                     "attempts": attempts[point.index]}
                    for point in points if point.index in errors]
        report = SweepReport.assemble(self.base, points, outcomes,
                                      workers=self.workers,
                                      failures=failures)
        if self.observe:
            merge = TelemetryMerge()
            for index in sorted(telemetry):
                merge.add_json(telemetry[index])
            report.telemetry = merge.fleet()
        return report

    def _run_wave_parallel(self, wave: list[tuple]) -> \
            list[tuple[int, bool, str, str | None]]:
        """One wave of points on a fresh process pool, crash-tolerant.

        A worker that raises returns its error through the guarded
        entry point; a worker that *dies* (hard exit, OOM kill) breaks
        the whole pool, so the wave's unfinished points are marked
        failed and the pool is rebuilt by the next wave.  A hung worker
        is detected by ``point_timeout`` and treated the same way.
        """
        settled: list[tuple[int, bool, str, str | None]] = []
        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            futures = {pool.submit(_run_spec_guarded, payload): payload[0]
                       for payload in wave}
            remaining = set(futures)
            while remaining:
                done, _ = wait(remaining, timeout=self.point_timeout,
                               return_when=FIRST_COMPLETED)
                if not done:  # hung worker: give up on the wave
                    for future in remaining:
                        future.cancel()
                        settled.append((futures[future], False,
                                        "TimeoutError: worker hung past "
                                        "point_timeout", None))
                    for process in pool._processes.values():
                        process.terminate()
                    remaining = set()
                    break
                broken = False
                for future in done:
                    remaining.discard(future)
                    try:
                        settled.append(future.result())
                    except BrokenProcessPool:
                        settled.append((futures[future], False,
                                        "BrokenProcessPool: a worker "
                                        "process died mid-point", None))
                        broken = True
                    except Exception as exc:  # noqa: BLE001
                        settled.append((futures[future], False,
                                        f"{type(exc).__name__}: {exc}",
                                        None))
                if broken:
                    # The pool is unusable; fail the wave's leftovers so
                    # they retry on the next (fresh) pool.
                    for future in remaining:
                        settled.append((futures[future], False,
                                        "BrokenProcessPool: a worker "
                                        "process died mid-point", None))
                    remaining = set()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return settled

    def sweep(self, seeds: Sequence[int] = (),
              policies: Sequence[str] = (),
              scale: Sequence[float] = (),
              overrides: Sequence[Mapping[str, Any]] = ()) -> SweepReport:
        """Build the grid and run it in one call."""
        return self.run(self.grid(seeds=seeds, policies=policies,
                                  scale=scale, overrides=overrides))


def sweep(base: ScenarioSpec, seeds: Sequence[int] = (),
          policies: Sequence[str] = (), scale: Sequence[float] = (),
          workers: int = 1,
          overrides: Sequence[Mapping[str, Any]] = (),
          observe: bool = False) -> SweepReport:
    """Run a spec grid: ``sweep(spec, seeds=..., policies=..., scale=...)``.

    Convenience wrapper over :class:`SweepRunner`; see its docs for
    grid and determinism semantics.  ``observe=True`` turns on
    federated observation: every worker ships a telemetry snapshot and
    the report carries the merged fleet view.
    """
    return SweepRunner(base, workers=workers, observe=observe).sweep(
        seeds=seeds, policies=policies, scale=scale, overrides=overrides)


def _jsonable_overrides(updates: Mapping[str, Any]) -> dict[str, Any]:
    """Overrides as JSON-ready data (defensive copy, sorted by key)."""
    return {key: updates[key] for key in sorted(updates)}
