"""The simulation workloads: frozen specs run the way users run them.

Every operation is one user run, ``ScenarioSpec.from_json(text)``
-> ``.build()`` -> ``.execute()`` -> ``.digest()`` (what
``ScenarioSpec.run()`` does; a spec with a ``shards`` section builds
the sharded runtime).  A workload's inputs are its committed spec under
``specs/`` with only ``seed`` changed: input ``i`` of a run at seed
``S`` uses spec seed ``S + i``.  A *pass* runs every input once; a run
makes the number of whole passes whose time comes closest to the time
budget (at least one, judged by the first), so every input weighs the
same in the medians.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from itertools import cycle, islice
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping

from .hostspeed import HostSpeed
from .tracer import Tracer, chrome_trace, direct, instrument, layer_metrics

__all__ = ["SPEC_DIR", "SimWorkload", "SIM_WORKLOADS", "Measurement",
           "check_result", "run_spec", "set_up", "measure_sim", "trace_sim"]

#: The checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = ROOT / "benchmarks" / "e2e" / "specs"
OUT_DIR = ROOT / "benchmarks" / "e2e" / "out"
#: Set-ups an untraced run times at least (``setup_s`` is their median).
MIN_SETUPS = 10


def load_spec(name: str) -> dict:
    """A committed spec, verified against ``specs/MANIFEST.json``.

    The file must hash to its frozen SHA-256 and the spec must still
    fingerprint to its frozen identity, so neither the inputs nor the
    program's reading of them can drift unnoticed.
    """
    from repro.scenario import ScenarioSpec
    text = (SPEC_DIR / name).read_text(encoding="utf-8")
    manifest = json.loads((SPEC_DIR / "MANIFEST.json").read_text(
        encoding="utf-8"))
    entry = manifest.get(name)
    if entry is None:
        raise ValueError(f"spec {name} is not listed in specs/MANIFEST.json")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != entry["sha256"]:
        raise ValueError(f"spec {name} changed: sha256 {digest} is not the "
                         f"frozen {entry['sha256']}")
    fingerprint = ScenarioSpec.from_json(text).fingerprint()
    if fingerprint != entry["fingerprint"]:
        raise ValueError(f"spec {name} fingerprints to {fingerprint}, not "
                         f"the frozen {entry['fingerprint']}")
    return json.loads(text)


def seeded(template: Mapping[str, Any], seed: int) -> str:
    """The spec JSON a user would send, with ``seed`` replaced."""
    data = dict(template)
    data["seed"] = seed
    return json.dumps(data, sort_keys=True)


def check_result(data: Mapping[str, Any]) -> list[str]:
    """Invariants every scenario result must satisfy (empty when sound)."""
    problems = []
    finished, total = data["tasks_finished"], data["tasks_total"]
    if not 1 <= finished <= total:
        problems.append(f"tasks_finished {finished} not in [1, {total}]")
    utilization = data["datacenter"]["mean_utilization"]
    if not 0.0 <= utilization <= 1.0:
        problems.append(f"mean_utilization {utilization} not in [0, 1]")
    if data["makespan"] > data["sim_time"]:
        problems.append(f"makespan {data['makespan']} exceeds sim_time "
                        f"{data['sim_time']}")
    return problems


@dataclass
class Measurement:
    """What one run of one workload measured and checked.

    ``setups`` and ``latencies`` are seconds at reference speed (see
    :mod:`.hostspeed`); ``raw_latencies`` are host seconds.
    """

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    #: Finished tasks of each operation, in the order of ``latencies``.
    tasks: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    passes: int = 0
    references: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    #: Per-layer numbers of a traced run (empty when untraced).
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        """Record one failed operation."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def add(self, speed: HostSpeed, latency: float, tasks: int,
            setup: float | None = None) -> None:
        """Record one successful operation's host times."""
        self.raw_latencies.append(latency)

        def apply(scale: float) -> None:
            self.latencies.append(latency * scale)
            self.tasks.append(tasks)
            if setup is not None:
                self.setups.append(setup * scale)
        speed.defer(apply)


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB (0 when it is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimWorkload:
    """A workload run in-process: a committed spec at ``inputs`` seeds.

    ``warm_up`` runs the first input once, untimed, before measuring:
    it absorbs first-run costs and gives the digest-repeat check an
    input to repeat in a run of one pass.
    """

    name: str
    spec: str
    inputs: int
    warm_up: bool = True

    def texts(self, seed: int) -> list[str]:
        template = load_spec(self.spec)
        return [seeded(template, seed + i) for i in range(self.inputs)]


#: Why each workload exists, and what it should and should not move, is
#: in README.md and BENCHMARK.json.  The input counts average over enough
#: seeds to steady the medians; one pass of backlog or elastic, whose
#: runs take seconds, already fills a run.  A backlog run takes ~5 s,
#: against which its first-run cost does not show, so it skips the
#: warm-up, which would add a fifth of the run's time.
SIM_WORKLOADS: dict[str, SimWorkload] = {w.name: w for w in (
    SimWorkload("macro", "macro.json", 3),
    SimWorkload("backlog", "backlog.json", 4, warm_up=False),
    SimWorkload("elastic", "elastic.json", 6),
    SimWorkload("resilience", "chaos_slo.json", 200),
    SimWorkload("planet", "planet_scale.json", 40),
)}


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------
def run_spec(text: str, call: Callable = direct,
             clock: Callable[[], float] = perf_counter
             ) -> tuple[float, float, Any, str]:
    """One user run; returns ``(setup s, total s, result, digest)``.

    Set-up is spec JSON to composed runtime; the total runs on through
    ``execute()`` and the result digest.  ``call`` is
    :meth:`Tracer.call` in a traced run; ``clock`` is
    :meth:`HostSpeed.clock` in an untraced one.
    """
    from repro.scenario import ScenarioSpec
    started = clock()
    spec = call("scenario.parse", ScenarioSpec.from_json, text)
    runtime = call("scenario.build", spec.build)
    built = clock()
    result = runtime.execute()
    digest = call("scenario.digest", result.digest)
    return built - started, clock() - started, result, digest


def set_up(text: str, clock: Callable[[], float] = perf_counter) -> float:
    """Seconds from spec JSON to a composed runtime, without running it."""
    from repro.scenario import ScenarioSpec
    started = clock()
    ScenarioSpec.from_json(text).build()
    return clock() - started


def _checked(measurement: Measurement, key: str, result: Any,
             digest: str) -> None:
    """Check one run's result and digest; records a failure if unsound."""
    problems = check_result(result.to_dict())
    expected = measurement.digests.setdefault(key, digest)
    if digest != expected:
        problems.append(f"digest {digest[:12]} differs from an earlier run "
                        f"of the same input ({expected[:12]})")
    if problems:
        measurement.fail(f"{key}: " + "; ".join(problems))


def _runs(measurement: Measurement, keys: list[str], texts: list[str],
          tracer: Tracer | None = None,
          clock: Callable[[], float] = perf_counter):
    """Run each input once, checked; yields ``(setup, total, result)``.

    Every run that completes is yielded, sound or not: a wrong output
    is recorded as a failure on ``measurement`` but its time was still
    spent.  Every run starts from a collected heap, so no run pays for
    garbage an earlier one left behind.
    """
    call = direct if tracer is None else tracer.call
    for key, text in zip(keys, texts):
        measurement.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.run_id = f"{measurement.workload}/{key}"
        try:
            setup, total, result, digest = call("op", run_spec, text, call,
                                                clock)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            measurement.fail(f"{key}: {type(exc).__name__}: {exc}")
            continue
        _checked(measurement, key, result, digest)
        yield setup, total, result


def _inputs(workload: SimWorkload, seed: int) -> tuple[list[str], list[str]]:
    """The run's input keys (spec seeds) and spec texts."""
    texts = workload.texts(seed)
    return [str(seed + i) for i in range(len(texts))], texts


def _warm_up(workload: SimWorkload, measurement: Measurement,
             keys: list[str], texts: list[str]) -> None:
    if workload.warm_up:
        for _ in _runs(measurement, keys[:1], texts[:1]):
            pass


def measure_sim(workload: SimWorkload, seed: int,
                seconds: float) -> Measurement:
    """Untraced run: warm up, then the whole passes closest to ``seconds``."""
    measurement = Measurement(workload.name, seed)
    keys, texts = _inputs(workload, seed)
    _warm_up(workload, measurement, keys, texts)
    with HostSpeed(sample=True) as speed:
        started = perf_counter()
        passes = 1
        while measurement.passes < passes:
            for setup, total, result in _runs(measurement, keys, texts,
                                              clock=speed.clock):
                measurement.add(speed, total, result.tasks_finished, setup)
            measurement.passes += 1
            if measurement.passes == 1:
                passes = max(1, round(seconds / (perf_counter() - started)))
        # setup_s is a median: top up the few set-ups a long pass leaves.
        extra = MIN_SETUPS - measurement.passes * len(texts)
        for text in islice(cycle(texts), max(0, extra)):
            gc.collect()
            setup = set_up(text, speed.clock)
            speed.defer(lambda scale, setup=setup:
                        measurement.setups.append(setup * scale))
    measurement.references = speed.references
    measurement.peak_rss_mb = peak_rss_mb()
    return measurement


def trace_sim(workload: SimWorkload, seed: int) -> Measurement:
    """Traced run: one untraced pass, then the same pass traced.

    The traced pass must reproduce every untraced digest; the ratio of
    the two passes' run times is the tracing overhead.
    """
    measurement = Measurement(workload.name, seed)
    keys, texts = _inputs(workload, seed)
    _warm_up(workload, measurement, keys, texts)
    untraced_s = sum(total for _, total, _ in
                     _runs(measurement, keys, texts))
    tracer = Tracer()
    with instrument(tracer) as missing:
        traced = [(total, result) for _, total, result in
                  _runs(measurement, keys, texts, tracer)]
    traced_s = sum(total for total, _ in traced)
    measurement.passes = 1
    measurement.layers = {
        **layer_metrics(tracer),
        **result_layers([result for _, result in traced]),
        **dict.fromkeys(SERVICE_LAYERS, 0),
        "bench.trace_overhead": traced_s / untraced_s if untraced_s else 0.0}
    measurement.notes.append(f"traced pass {traced_s:.3f} s, untraced "
                             f"{untraced_s:.3f} s")
    measurement.notes.extend(f"missing hook {name}" for name in missing)
    measurement.notes.append(f"trace written to "
                             f"{write_trace(tracer, workload.name, seed)}")
    return measurement


#: Per-layer metrics only the service workloads measure.
SERVICE_LAYERS = ("service.submit_ms", "service.polls_per_miss",
                  "service.cache_hit_ratio", "service.retries",
                  "service.worker_failures", "service.server_cpu_s")


def result_layers(results: list) -> dict[str, float]:
    """Layer counts the results report (resilience, cross-shard traffic)."""
    retries = hedges = messages = 0
    wasted = 0.0
    for result in results:
        if result.chaos is not None:
            summary = result.chaos["summary"]
            retries += int(summary["total_retries"])
            hedges += int(summary["hedges_launched"])
        wasted += result.datacenter["wasted_core_seconds"]
        if result.shards is not None:
            coupling = result.shards["coupling"]
            messages += coupling["offloaded"] + coupling["acked"]
    return {"resilience.retries": retries, "resilience.hedges": hedges,
            "resilience.wasted_core_s": wasted,
            "sharding.messages": messages}


def write_trace(tracer: Tracer, workload: str, seed: int) -> Path:
    """Write the Chrome-trace file under ``out/``; returns its path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps(chrome_trace(
        tracer, {"workload": workload, "seed": seed})), encoding="utf-8")
    return path
