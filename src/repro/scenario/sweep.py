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

Worker failures are part of the contract, not an abort.  Points run
through the worker seam (:mod:`repro.scenario.workers`) and follow its
outcome table: a point whose worker dies or hangs is retried
deterministically on a fresh worker, a point whose run raises is not
(it would raise again), and a point that still fails is surfaced in
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
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..observability.export import dumps_deterministic, science_digest
from ..observability.federation import TelemetryMerge
from .result import ScenarioResult
from .spec import ScenarioSpec
from .workers import (
    Attempt,
    ExecutionFailure,
    InlineExecutor,
    PoolExecutor,
    checked_timeout,
    run_spec_observed,
)

__all__ = ["SweepPoint", "SweepReport", "SweepRunner", "run_spec_observed",
           "sweep"]


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

    def science_digest(self) -> str:
        """:meth:`digest` without the runs' and telemetry's kernel counts.

        See :meth:`ScenarioResult.science_digest`.
        """
        return science_digest(self.to_dict())

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
            parallel results are comparable byte for byte).  More
            runs on one warm pool per :meth:`run`, kept across retry
            waves.
        retries: Deterministic re-runs granted to a point whose worker
            crashed or timed out before it becomes a gap record
            (default 1 — the "retry once on a fresh worker" contract).
            A point whose run raised is a gap record at once.
        point_timeout: Optional wall-clock seconds the pool waits for
            its next point to settle before declaring the unsettled
            points' workers hung: they are killed and the points time
            out.  ``None`` (the default) waits indefinitely; the
            in-process path has no deadline.  Timeouts are an
            execution detail and never enter the report bytes.
        crash_plan: Optional fault-injection plan
            (``{point index: n}``): the first ``n`` attempts of that
            point crash — in process without running, on the pool by
            killing the worker process.  For chaos drills and
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
        self.base = base
        self.workers = workers
        self.retries = retries
        self.point_timeout = checked_timeout(point_timeout)
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

        Per-point failures never abort the sweep: a point whose worker
        process dies or hangs is retried up to ``retries`` times on a
        fresh worker, a point whose run raises is not, and a point
        that still fails lands in :attr:`SweepReport.failed` with its
        ``"<kind>: <message>"`` error and attempt count.
        """
        if not points:
            raise ValueError("the sweep grid is empty")
        spec_json = {point.index: point.spec.to_json() for point in points}
        attempts = {point.index: 0 for point in points}
        errors: dict[int, str] = {}
        outcomes: list[tuple[int, str]] = []
        telemetry: dict[int, str] = {}
        pending = [point.index for point in points]
        executor = (InlineExecutor(self.crash_plan) if self.workers == 1
                    else PoolExecutor(self.workers, self.point_timeout,
                                      self.crash_plan))
        try:
            while pending:
                wave = [Attempt(index, spec_json[index], attempts[index],
                                f"point-{index:05d}" if self.observe
                                else None)
                        for index in pending]
                retry: list[int] = []
                for index, outcome in zip(pending, executor.settle(wave)):
                    attempts[index] += 1
                    if isinstance(outcome, ExecutionFailure):
                        errors[index] = str(outcome)
                        if (outcome.kind != "error"
                                and attempts[index] <= self.retries):
                            retry.append(index)
                        continue
                    errors.pop(index, None)
                    if self.observe:
                        outcome, telemetry[index] = outcome
                    outcomes.append((index, outcome))
                pending = retry
        finally:
            executor.close()
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
