"""Command-line interface: tables, figures, and scenario runs.

Usage::

    python -m repro                 # list available artifacts
    python -m repro table2          # print one artifact
    python -m repro all             # print everything
    python -m repro observe         # watch a simulation observe itself
    python -m repro observe --spec examples/specs/chaos_slo.json
    python -m repro run examples/specs/chaos_baseline.json
    python -m repro sweep examples/specs/chaos_baseline.json \\
        --seeds 1,2 --policies fcfs,sjf --workers 2
    python -m repro serve --port 8765

``observe`` (also ``--observe``) runs a small deterministic scenario —
a fork-join workflow on a cluster that takes a correlated failure
burst mid-run — with the full observability stack armed, then prints
the operator's view: the metrics table, the SLO verdicts, the alert
log, and the workflow's critical path.  With ``--spec <file>`` it
instead arms the observability stack on *any* declarative scenario
spec and prints the same operator's view for it.  With ``--federated``
it runs a seed grid across worker processes with per-worker Observer
capture, prints the merged fleet view, and verifies the merge is
byte-identical to a serial re-run (see docs/OBSERVABILITY.md,
"Federation").

``run`` executes one scenario spec (a JSON document, see
``docs/SCENARIOS.md``) and prints its deterministic result summary,
fingerprint, and digest; ``--out <file>`` also writes the full result
JSON.  Specs with a ``shards`` section run as per-region event loops
under conservative epoch coupling, all in one process, and ``run``
adds a line with the shard count, epochs, and offloaded tasks (see
docs/ARCHITECTURE.md, "Sharding").  ``sweep`` fans a
seed/policy/scale grid of the spec across worker processes
(``--workers``) with a deterministic merge; ``--verify-serial``
re-runs the grid serially and asserts the merged report digest is
byte-identical.

``serve`` runs the scenario kernel as a long-lived multi-tenant HTTP
service fronted by the repo's own resilience stack — bounded-queue
admission with per-tenant quotas (429 + ``Retry-After``), a circuit
breaker around the warm worker pool (503 while open), per-tenant retry
budgets, and a fingerprint-keyed result cache.  See
``docs/SERVICE.md`` for the API.

A missing option value, an unknown option, or a value that does not
parse or validate prints one line on stderr and exits 2.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .core import (
    ChallengeRegistry,
    CurriculumRegistry,
    FieldRegistry,
    MCSOverview,
    PrincipleRegistry,
    UseCaseRegistry,
)
from .datacenter import ReferenceArchitecture
from .evolution import TechnologyTimeline
from .faas import FaaSReferenceArchitecture
from .gaming import GamingArchitecture
from .reporting import render_table
from .sim.sharding import ShardConfigError
from .workload.wfformat import WfFormatError

__all__ = ["main"]


def _table1() -> str:
    return render_table(["Question", "Aspect", "Content"],
                        MCSOverview().table_rows(),
                        title="TABLE 1. AN OVERVIEW OF MCS.")


def _table2() -> str:
    return render_table(["Type", "Index", "Key aspects"],
                        PrincipleRegistry().table_rows(),
                        title="TABLE 2. THE 10 KEY PRINCIPLES OF MCS.")


def _table3() -> str:
    return render_table(["Type", "Index", "Key aspects", "Princip."],
                        ChallengeRegistry().table_rows(),
                        title="TABLE 3. THE 20 CHALLENGES RAISED BY MCS.")


def _table4() -> str:
    return render_table(["Loc.", "Description", "Key aspects"],
                        UseCaseRegistry().table_rows(),
                        title="TABLE 4. SELECTED USE-CASES FOR MCS.")


def _table5() -> str:
    return render_table(
        ["Field (Decade)", "Crisis", "Continues", "Obj.", "Object",
         "Method.", "Char."],
        FieldRegistry().table_rows(),
        title="TABLE 5. COMPARISON OF FIELDS.")


def _figure2() -> str:
    return render_table(["Decade", "Field", "Technology"],
                        TechnologyTimeline().table_rows(),
                        title="FIGURE 2. MAIN TECHNOLOGIES LEADING TO MCS.")


def _figure3() -> str:
    return render_table(["#", "Layer", "Responsibility"],
                        ReferenceArchitecture().table_rows(),
                        title="FIGURE 3. REFERENCE ARCHITECTURE FOR "
                              "DATACENTERS.")


def _figure4() -> str:
    return render_table(["Function", "Main topics"],
                        GamingArchitecture().table_rows(),
                        title="FIGURE 4. ONLINE GAMING ARCHITECTURE.")


def _figure5() -> str:
    return render_table(["#", "Layer", "Responsibility"],
                        FaaSReferenceArchitecture().table_rows(),
                        title="FIGURE 5. FAAS REFERENCE ARCHITECTURE.")


def _curriculum() -> str:
    rows = [(a.index, a.title, a.audience)
            for a in CurriculumRegistry()]
    return render_table(["#", "Addition", "Audience"], rows,
                        title="C12. THE BOKMCS CURRICULUM ADDITIONS.")


def _observe() -> str:
    """One self-observing run: telemetry, SLOs, alerts, critical path.

    Everything is fixed (no randomness), so the printed tables are
    byte-identical on every invocation — the observability contract,
    demonstrated at the command line.
    """
    from .datacenter import Datacenter, MachineSpec, homogeneous_cluster
    from .failures import FailureEvent, FailureInjector
    from .observability import (AvailabilityObjective, BurnRateRule,
                                Observer, QueueWaitObjective, SLOEngine,
                                StreamingPipeline, critical_path)
    from .reporting import (render_alerts, render_critical_path,
                            render_metrics, render_slo_report)
    from .scheduling import ClusterScheduler, WorkflowEngine
    from .sim import Simulator
    from .workload import Task, Workflow

    sim = Simulator()
    observer = Observer()
    observer.attach(sim)
    cluster = homogeneous_cluster("observe", 4, MachineSpec(cores=2),
                                  machines_per_rack=2)
    datacenter = Datacenter(sim, [cluster], name="observe-dc")
    scheduler = ClusterScheduler(sim, datacenter)
    engine = WorkflowEngine(sim, scheduler)

    workflow = Workflow("observe-demo")
    prep = workflow.add_task(Task(runtime=5.0, cores=1, name="prep"))
    stages = [workflow.add_task(Task(runtime=8.0 + i, cores=1,
                                     name=f"stage{i}"),
                                dependencies=[prep])
              for i in range(6)]
    workflow.add_task(Task(runtime=4.0, cores=1, name="merge"),
                      dependencies=stages)

    burst = FailureEvent(time=9.0, duration=25.0,
                         machine_names=("observe-m0", "observe-m1"))
    FailureInjector(sim, datacenter, [burst])

    pipeline = StreamingPipeline(sim, observer.metrics, interval=2.0)
    pipeline.attach(until=120.0)
    slo = SLOEngine(
        pipeline,
        objectives=[
            AvailabilityObjective(
                "exec-success", good="datacenter.executions_finished",
                bad="datacenter.executions_interrupted", target=0.9),
            QueueWaitObjective("fast-start", threshold=5.0, target=0.9),
        ],
        rules=(BurnRateRule("fast", long_window=20.0, short_window=6.0,
                            threshold=2.0),))

    done = engine.submit(workflow)
    sim.run(until=done)
    scheduler.stop()

    path = critical_path(observer.tracer, "workflow observe-demo")
    sections = [
        f"One workflow, one failure burst, makespan {sim.now:.1f}s "
        "- as the run saw itself:",
        render_metrics(observer.metrics.snapshot(),
                       title="Metrics (end of run)"),
        render_slo_report(slo.report()),
        render_alerts(slo.alerts),
        render_critical_path(path,
                             title="Critical path (workflow observe-demo)"),
    ]
    return "\n\n".join(sections)


class SpecLoadError(Exception):
    """A spec file could not be read or parsed (user-facing message)."""


def _load_spec(path: str):
    """Read a :class:`ScenarioSpec` from a JSON file.

    Raises :class:`SpecLoadError` with an actionable message when the
    file is missing, unreadable, not JSON, or not a valid spec — the
    CLI turns that into one stderr line and exit code 2, never a raw
    traceback.
    """
    import json

    from .scenario import ScenarioSpec
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecLoadError(
            f"cannot read spec file {path!r}: {exc.strerror or exc}"
        ) from exc
    try:
        return ScenarioSpec.from_json(text)
    except json.JSONDecodeError as exc:
        raise SpecLoadError(
            f"spec file {path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise SpecLoadError(
            f"spec file {path!r} is not a valid scenario spec: "
            f"{type(exc).__name__}: {exc} (see docs/SCENARIOS.md)"
        ) from exc


class UsageError(Exception):
    """A command line the CLI cannot act on (one user-facing line)."""


#: Each command's synopsis, for ``--help`` and for usage errors.
USAGE = {
    "observe": "observe [--spec <file>] "
               "[--federated [--workers N] [--seeds 1,2,3,4]]",
    "run": "run <spec.json> [--out <file>]",
    "sweep": "sweep <spec.json> [--seeds 1,2] [--policies fcfs,sjf] "
             "[--scale 1.0,2.0] [--workers N] [--verify-serial] "
             "[--out <file>]",
    "serve": "serve [--host H] [--port P] [--workers N] [--max-queue N] "
             "[--tenant-quota N] [--inline] [--observe]",
}


def _usage(command: str) -> UsageError:
    return UsageError(f"usage: python -m repro {USAGE[command]}")


def _parse_args(command: str, argv: list[str],
                values: Mapping[str, Callable[[str], Any]],
                flags: Iterable[str] = (), positional: int = 0,
                ) -> tuple[list[str], dict[str, Any]]:
    """Split one command's arguments into positionals and options.

    ``values`` maps each option that takes a value to the function
    that parses it; every flag in ``flags`` parses to ``True``.  A
    missing value, a parser's ``ValueError``, an unknown option, or a
    wrong number of positional arguments raises :class:`UsageError`
    before anything runs.
    """
    rest: list[str] = []
    options: dict[str, Any] = {}
    arguments = iter(argv)
    for argument in arguments:
        if argument in flags:
            options[argument] = True
        elif argument in values:
            text = next(arguments, None)
            if text is None:
                raise UsageError(f"missing value for {argument}")
            try:
                options[argument] = values[argument](text)
            except ValueError as exc:
                raise UsageError(f"invalid {command} option {argument} "
                                 f"{text!r}: {exc}") from exc
        elif argument.startswith("-"):
            raise _usage(command)
        else:
            rest.append(argument)
    if len(rest) != positional:
        raise _usage(command)
    return rest, options


def _positive(cast: Callable[[str], Any]) -> Callable[[str], Any]:
    """A parser for one finite number > 0, read with ``cast``."""
    def parse(text: str) -> Any:
        value = cast(text)
        if not 0 < value < math.inf:
            raise ValueError("must be a finite number > 0")
        return value
    return parse


def _axis(cast: Callable[[str], Any]) -> Callable[[str], list]:
    """A parser for a ``a,b,c`` sweep axis, each entry read with ``cast``."""
    def parse(text: str) -> list:
        return [cast(part) for part in text.split(",") if part]
    return parse


def _port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise ValueError("must be in 0-65535 (0 picks a free port)")
    return port


def _queue_policy(name: str) -> str:
    from .scheduling.policies import QUEUE_POLICIES
    if name not in QUEUE_POLICIES:
        raise ValueError(f"unknown queue policy; registered: "
                         f"{sorted(QUEUE_POLICIES)}")
    return name


def _observe_spec(path: str) -> str:
    """The operator's view of one declarative scenario run.

    A spec with a ``shards`` section gets the federated view instead:
    every per-region event loop captures its own telemetry plane and
    the merged fleet report is printed under per-shard run IDs.
    """
    from .observability import Observer
    from .reporting import (render_alerts, render_metrics,
                            render_slo_report)
    spec = _load_spec(path)
    if spec.shards is not None:
        from .reporting import render_fleet_report
        from .sim.sharding import ShardedScenarioRuntime
        sharded = ShardedScenarioRuntime(spec, capture=True)
        result = sharded.execute()
        sections = [
            f"Scenario {spec.name!r} (seed {spec.seed}, fingerprint "
            f"{spec.fingerprint()}) - as the sharded run saw itself:",
            render_fleet_report(
                sharded.telemetry,
                title=f"Fleet telemetry "
                      f"({len(spec.shards.shards)} shard(s))"),
            f"Result digest: {result.digest()}",
        ]
        return "\n\n".join(sections)
    observer = Observer()
    runtime = spec.build(observer=observer)
    engine = runtime.engine
    result = runtime.execute()
    sections = [
        f"Scenario {spec.name!r} (seed {spec.seed}, fingerprint "
        f"{spec.fingerprint()}) - as the run saw itself:",
        render_metrics(observer.metrics.snapshot(),
                       title="Metrics (end of run)"),
    ]
    if engine is not None:
        sections.append(render_slo_report(engine.report()))
        sections.append(render_alerts(engine.alerts))
    if result.chaos is not None:
        lines = [f"  {key}: {value:g}"
                 for key, value in sorted(result.chaos["summary"].items())]
        sections.append("Resilience summary:\n" + "\n".join(lines))
    sections.append(f"Result digest: {result.digest()}")
    return "\n\n".join(sections)


def _observe_federated(options: Mapping[str, Any]) -> int:
    """``observe --federated [--spec F] [--workers N] [--seeds ..]``.

    Runs a seed grid of the spec with federated observation — every
    worker ships its telemetry snapshot across the pool seam — then
    prints the merged fleet view and pins its determinism by re-running
    the grid serially and comparing fleet digests.
    """
    from .observability.federation import fleet_digest
    from .reporting import render_fleet_report
    from .scenario import SweepRunner
    spec = _load_spec(options.get("--spec",
                                  "examples/specs/chaos_baseline.json"))
    seeds = options.get("--seeds", [1, 2, 3, 4])
    workers = options.get("--workers", 2)
    report = SweepRunner(spec, workers=workers,
                         observe=True).sweep(seeds=seeds)
    assert report.telemetry is not None
    print(render_fleet_report(
        report.telemetry,
        title=f"Fleet telemetry for {spec.name!r} "
              f"({workers} worker(s))"))
    print(f"\n  report digest: {report.digest()}")
    serial = SweepRunner(spec, workers=1, observe=True).sweep(seeds=seeds)
    assert serial.telemetry is not None
    if fleet_digest(serial.telemetry) != fleet_digest(report.telemetry):
        print("  FAIL: serial fleet digest differs", file=sys.stderr)
        return 1
    print("  serial re-run fleet digest matches (byte-identical merge)")
    return 0


def _run_spec(argv: list[str]) -> int:
    """``run <spec.json> [--out F]``: one run.

    A spec with a ``shards`` section runs its per-region event loops
    under conservative epoch coupling, and one more line reports the
    shard count, epochs, and offloaded tasks.
    """
    (path,), options = _parse_args("run", argv, {"--out": str},
                                   positional=1)
    result = _load_spec(path).run()
    if result.shards is not None:
        coupling = result.shards["coupling"]
        print(f"  shards: {len(result.shards['by_shard'])}, "
              f"{coupling['epochs']} epochs, "
              f"{coupling['offloaded']} task(s) offloaded")
    for key, value in sorted(result.summary().items()):
        print(f"  {key}: {value:g}")
    print(f"  fingerprint: {result.fingerprint}")
    print(f"  digest: {result.digest()}")
    out = options.get("--out")
    if out is not None:
        Path(out).write_text(result.to_json() + "\n", encoding="utf-8")
        print(f"  result written to {out}")
    return 0


def _sweep_spec(argv: list[str]) -> int:
    """``sweep <spec.json> --seeds 1,2 --policies fcfs,sjf ...``."""
    from .reporting import render_table
    from .scenario import SweepRunner
    (path,), options = _parse_args(
        "sweep", argv,
        {"--seeds": _axis(int), "--policies": _axis(_queue_policy),
         "--scale": _axis(_positive(float)), "--workers": _positive(int),
         "--out": str},
        flags=("--verify-serial",), positional=1)
    spec = _load_spec(path)
    seeds = options.get("--seeds", [])
    policies = options.get("--policies", [])
    scale = options.get("--scale", [])
    workers = options.get("--workers", 1)
    report = SweepRunner(spec, workers=workers).sweep(
        seeds=seeds, policies=policies, scale=scale)
    rows = []
    for label, summary in report.rows():
        rows.append((label, f"{summary['makespan']:.1f}",
                     f"{summary['tasks_finished']:.0f}/"
                     f"{summary['tasks_total']:.0f}",
                     f"{summary.get('wait_mean', 0.0):.1f}"))
    print(render_table(
        ["Point", "Makespan", "Finished", "Mean wait"], rows,
        title=f"Sweep of {spec.name!r}: {len(report.runs)} runs on "
              f"{workers} worker(s)"))
    print(f"  base fingerprint: {report.base_fingerprint}")
    print(f"  report digest: {report.digest()}")
    if "--verify-serial" in options:
        serial = SweepRunner(spec, workers=1).sweep(
            seeds=seeds, policies=policies, scale=scale)
        if serial.digest() != report.digest():
            print("  FAIL: serial re-run digest differs", file=sys.stderr)
            return 1
        print("  serial re-run digest matches (byte-identical merge)")
    if "--out" in options:
        Path(options["--out"]).write_text(report.to_json() + "\n",
                                          encoding="utf-8")
        print(f"  report written to {options['--out']}")
    return 0


def _serve(argv: list[str]) -> int:
    """``serve [--host H] [--port P] [--workers N] ...``: HTTP service.

    Blocks until SIGINT/SIGTERM, then shuts the server and its worker
    pool down cleanly.  ``--inline`` swaps the warm process pool for
    the in-process executor (useful on machines where spawning
    processes is expensive; it is what the CI smoke job uses).
    ``--observe`` turns on federated per-run telemetry capture so
    ``/v1/metrics?format=openmetrics`` carries the fleet plane.
    """
    import signal
    import threading

    from .service import (InlineExecutor, ScenarioService, ServiceConfig,
                          ServiceHTTPServer)
    _, options = _parse_args(
        "serve", argv,
        {"--host": str, "--port": _port, "--workers": _positive(int),
         "--max-queue": _positive(int), "--tenant-quota": _positive(int)},
        flags=("--inline", "--observe"))
    inline = "--inline" in options
    observe = "--observe" in options
    config = ServiceConfig(max_queue=options.get("--max-queue", 64),
                           tenant_quota=options.get("--tenant-quota", 16),
                           workers=options.get("--workers", 1),
                           observe=observe)
    executor = InlineExecutor() if inline else None
    service = ScenarioService(config, executor=executor)
    server = ServiceHTTPServer(service,
                               host=options.get("--host", "127.0.0.1"),
                               port=options.get("--port", 8765))
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    print(f"repro service listening on {server.address} "
          f"({'inline' if inline else str(config.workers) + ' warm'} "
          f"worker(s), queue {config.max_queue}, quota "
          f"{config.tenant_quota}/tenant"
          f"{', federated observation on' if observe else ''})",
          flush=True)
    stop.wait()
    print("shutting down...", flush=True)
    server.stop()
    return 0


ARTIFACTS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "figure2": _figure2,
    "figure3": _figure3,
    "figure4": _figure4,
    "figure5": _figure5,
    "curriculum": _curriculum,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print("\nAvailable artifacts:")
        for name in sorted(ARTIFACTS):
            print(f"  {name}")
        print("  all")
        for synopsis in USAGE.values():
            print(f"  {synopsis}")
        return 0
    name = argv[0]
    try:
        if name in ("observe", "--observe"):
            _, options = _parse_args(
                "observe", argv[1:],
                {"--spec": str, "--workers": _positive(int),
                 "--seeds": _axis(int)},
                flags=("--federated",))
            if "--federated" in options:
                return _observe_federated(options)
            if "--workers" in options or "--seeds" in options:
                raise _usage("observe")
            print(_observe_spec(options["--spec"]) if "--spec" in options
                  else _observe())
            return 0
        if name == "run":
            return _run_spec(argv[1:])
        if name == "sweep":
            return _sweep_spec(argv[1:])
        if name == "serve":
            return _serve(argv[1:])
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SpecLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WfFormatError as exc:
        # Malformed WfFormat documents embedded in (or referenced by)
        # a spec surface exactly like other spec errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShardConfigError as exc:
        # Invalid shard plans (unknown datacenter, overlapping shards,
        # zero-latency links) follow the same convention.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if name == "all":
        for artifact in sorted(ARTIFACTS):
            print(ARTIFACTS[artifact]())
            print()
        return 0
    if name not in ARTIFACTS:
        print(f"unknown artifact {name!r}; try: "
              f"{', '.join(sorted(ARTIFACTS))}, all", file=sys.stderr)
        return 2
    print(ARTIFACTS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
