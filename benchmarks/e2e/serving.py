"""The service workloads: ``python -m repro serve`` driven over loopback.

One client (this process, one thread, one request at a time) talks to
one server started with ``--workers 1``, through the
:class:`~repro.service.ServiceClient` users call.  The loop is closed:
the next request goes out only after the previous one completed.

- ``service_miss`` submits specs the server has never seen (five
  templates cycled, each with a fresh seed) and polls the result every
  2 ms, because ``ServiceClient.wait`` would poll every 100 ms and
  hide the service's own latency.  Every miss runs on the worker pool.
- ``service_hit`` first submits a fixed set of specs once, then
  re-submits that set round-robin; every re-submission must be answered
  from the result cache with the digest the first run produced.

The simulations are tiny (1-20 ms), so validation, fingerprinting, the
cache, worker-pool IPC and HTTP carry the cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable

from .hostspeed import HostSpeed
from .tracer import Tracer, direct, layer_metrics
from .workloads import (ROOT, Measurement, check_result, load_spec,
                        peak_rss_mb, result_layers, seeded, write_trace)

__all__ = ["SERVICE_WORKLOADS", "Server", "measure_service",
           "trace_service"]

#: Templates of the request mix, cycled in this order.
TEMPLATES = ("montage_small_scenario.json", "epigenomics_small_scenario.json",
             "ligo_small_scenario.json", "chaos_baseline.json",
             "chaos_slo.json")

SERVICE_WORKLOADS = ("service_miss", "service_hit")

POLL_S = 0.002
#: Server launches per run; ``setup_s`` is their median.
LAUNCHES = 5
LAUNCH_TIMEOUT = 60.0
#: Distinct specs the hit workload re-submits (below the cache's 256).
HIT_SET = 50
#: Request counts of one traced repetition.
TRACE_MISSES = 100
TRACE_HITS = 1000
#: Input index of the first warm-up request, far above any timed one.
WARM_FIRST = 90_000


class BenchError(RuntimeError):
    """A response that breaks the service's contract."""


def _stat(pid: int | str) -> list[str] | None:
    """``/proc/<pid>/stat`` fields from the state on (None when gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat[stat.rindex(")") + 2:].split()


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (the server's pool workers)."""
    return [int(entry.name) for entry in Path("/proc").iterdir()
            if entry.name.isdigit()
            and (_stat(entry.name) or [None, None])[1] == str(pid)]


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an exited, unreaped zombie does not)."""
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds of one live process (0 when gone)."""
    fields = _stat(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``python -m repro serve --port 0 --workers 1`` process."""

    def __init__(self) -> None:
        self.proc: subprocess.Popen | None = None
        self.client = None
        self._workers: list[int] | None = None

    def start(self) -> float:
        """Launch and wait until ``/v1/health`` answers; returns seconds."""
        from repro.service import ServiceClient, ServiceError
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    LAUNCH_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"server did not announce an address: {line!r}")
        self.client = ServiceClient(match.group(1), tenant="bench")
        while True:
            try:
                if self.client.health()["status"] == "ok":
                    return perf_counter() - started
            except (OSError, ServiceError):
                pass
            if perf_counter() - started > LAUNCH_TIMEOUT:
                self.stop()
                raise BenchError("server never reported healthy")
            time.sleep(POLL_S)

    def processes(self) -> list[int]:
        """The server pid and its pool workers' pids."""
        return [self.proc.pid, *_children(self.proc.pid)]

    def terminate(self) -> None:
        """SIGTERM the server without waiting (its shutdown takes ~0.5 s)."""
        if self.proc is not None and self._workers is None:
            self._workers = _children(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)

    def stop(self) -> None:
        """SIGTERM the server and wait for it and its workers to end."""
        if self.proc is None:
            return
        self.terminate()
        proc, self.proc = self.proc, None
        workers, self._workers = self._workers, None
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        deadline = time.monotonic() + 10
        for pid in workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                    break
                time.sleep(0.01)


class _Requests:
    """The request inputs of one run: template ``i % 5``, fresh seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.templates = [load_spec(name) for name in TEMPLATES]

    def text(self, index: int) -> str:
        template = self.templates[index % len(self.templates)]
        return seeded(template, self.seed * 100_000 + index)


def miss(client, text: str, call: Callable = direct
         ) -> tuple[float, float, int, str, str]:
    """Submit a new spec and poll its result.

    Returns ``(latency s, submit s, polls, digest, result JSON)``;
    raises :class:`BenchError` when the response breaks the contract.
    """
    from repro.service import ServiceError
    started = perf_counter()
    body = call("service.submit", client.submit, text)
    submitted = perf_counter()
    if body.get("status") != 202:
        raise BenchError(f"expected 202 for a new spec, got {body}")
    job_id = body["job_id"]
    polls = 0
    while True:
        try:
            digest, result_json = call("service.result", client.result,
                                       job_id)
            break
        except ServiceError as exc:
            if exc.status != 409:
                raise
        polls += 1
        time.sleep(POLL_S)
    latency = perf_counter() - started
    if hashlib.sha256(result_json.encode("utf-8")).hexdigest() != digest:
        raise BenchError(f"job {job_id}: X-Result-Digest {digest[:12]} is "
                         f"not the body's SHA-256")
    problems = check_result(json.loads(result_json))
    if problems:
        raise BenchError(f"job {job_id}: " + "; ".join(problems))
    return latency, submitted - started, polls, digest, result_json


def hit(client, text: str, expected: str,
        call: Callable = direct) -> float:
    """Re-submit a cached spec; returns the latency in seconds."""
    started = perf_counter()
    body = call("service.submit", client.submit, text)
    latency = perf_counter() - started
    if body.get("status") != 200 or not body.get("cached"):
        raise BenchError(f"expected a cached 200, got {body}")
    if body.get("result_digest") != expected:
        raise BenchError(f"cached digest {body.get('result_digest')} is "
                         f"not the miss's {expected}")
    return latency


def _local_digest(text: str) -> str:
    from repro.scenario import ScenarioSpec
    return ScenarioSpec.from_json(text).run().digest()


def _warm_up(client, requests: _Requests, measurement: Measurement) -> None:
    """One miss per template; the library must agree with the service."""
    for index in range(WARM_FIRST, WARM_FIRST + len(TEMPLATES)):
        text = requests.text(index)
        measurement.attempted += 1
        digest = miss(client, text)[3]
        if digest != _local_digest(text):
            measurement.fail(f"warm-up {index}: service digest {digest[:12]} "
                             f"differs from an in-process run")


def _populate(client, requests: _Requests) -> tuple[list[str], list[str],
                                                    list[int]]:
    """Run the hit set once; returns its texts, digests and task counts."""
    texts, digests, tasks = [], [], []
    for index in range(HIT_SET):
        text = requests.text(index)
        _, _, _, digest, result_json = miss(client, text)
        texts.append(text)
        digests.append(digest)
        tasks.append(json.loads(result_json)["tasks_finished"])
    return texts, digests, tasks


def _verify_by_digest(client, digests: list[str],
                      measurement: Measurement) -> None:
    """Every cached body must hash to the digest it is filed under."""
    for digest in digests:
        body = client.result_by_digest(digest)
        if hashlib.sha256(body.encode("utf-8")).hexdigest() != digest:
            measurement.fail(f"/v1/results/{digest[:12]} body does not hash "
                             f"to its digest")


def _launch(measurement: Measurement, speed: HostSpeed) -> Server:
    """Launch :data:`LAUNCHES` servers in turn; returns the last, running.

    Each earlier server is told to shut down once it is healthy, and
    winds down while the next one launches.
    """
    retired: list[Server] = []
    try:
        for _ in range(LAUNCHES):
            if retired:
                retired[-1].terminate()
            server = Server()
            setup = server.start()
            speed.defer(lambda scale, setup=setup:
                        measurement.setups.append(setup * scale))
            retired.append(server)
        return retired.pop()
    finally:
        for server in retired:
            server.stop()


def measure_service(name: str, seed: int, seconds: float) -> Measurement:
    """Untraced run of ``service_miss`` or ``service_hit``."""
    measurement = Measurement(name, seed)
    requests = _Requests(seed)
    server = None
    try:
        with HostSpeed() as speed:
            server = _launch(measurement, speed)
            client = server.client
            _warm_up(client, requests, measurement)
            if name == "service_hit":
                texts, digests, tasks = _populate(client, requests)
            started = perf_counter()
            index = 0
            while perf_counter() - started < seconds:
                measurement.attempted += 1
                try:
                    if name == "service_miss":
                        latency, _, _, _, result_json = miss(
                            client, requests.text(index))
                        finished = json.loads(result_json)["tasks_finished"]
                    else:
                        slot = index % HIT_SET
                        latency = hit(client, texts[slot], digests[slot])
                        finished = tasks[slot]
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    measurement.fail(f"request {index}: {exc}")
                else:
                    measurement.add(speed, latency, finished)
                index += 1
        measurement.references = speed.references
        measurement.passes = 1
        if name == "service_hit":
            _verify_by_digest(client, digests, measurement)
        measurement.peak_rss_mb = sum(peak_rss_mb(pid)
                                      for pid in server.processes())
    finally:
        if server is not None:
            server.stop()
    return measurement


def trace_service(name: str, seed: int) -> Measurement:
    """Traced run: a fixed request count untraced, then again traced.

    Client-side spans only; the server's layers are out of this
    process's reach.  Traced misses are fresh inputs (a repeat would be
    a hit), so their digests are checked against in-process runs of
    the same specs; traced hits must return the untraced digests.
    """
    measurement = Measurement(name, seed)
    requests = _Requests(seed)
    server = Server()
    tracer = Tracer()
    try:
        measurement.setups.append(server.start())
        client = server.client
        _warm_up(client, requests, measurement)
        if name == "service_miss":
            untraced_s, traced_s, submits, polls = _trace_misses(
                client, requests, tracer, measurement)
            ops = TRACE_MISSES
        else:
            untraced_s, traced_s, submits, polls = _trace_hits(
                client, requests, tracer, measurement)
            ops = TRACE_HITS
        counters = client.metrics()["counters"]
        cpu_s = sum(_cpu_s(pid) for pid in server.processes())
    finally:
        server.stop()
    submissions = counters["service.submissions"]
    measurement.layers = {
        # The simulation layers run inside the server: report their
        # names at zero (an empty tracer reads zero everywhere).
        **layer_metrics(Tracer()), **result_layers([]),
        "service.submit_ms": statistics.median(submits) * 1e3,
        "service.polls_per_miss": (polls / ops if name == "service_miss"
                                   else 0.0),
        "service.cache_hit_ratio": (counters["service.cache_hits"]
                                    / submissions if submissions else 0.0),
        "service.retries": int(counters["service.retries"]),
        "service.worker_failures": int(counters["service.worker_failures"]),
        "service.server_cpu_s": cpu_s,
        "bench.trace_overhead": traced_s / untraced_s,
    }
    measurement.passes = 1
    measurement.notes.append(f"traced {ops} requests in {traced_s:.3f} s, "
                             f"untraced {untraced_s:.3f} s")
    measurement.notes.append(f"trace written to "
                             f"{write_trace(tracer, name, seed)}")
    return measurement


def _trace_misses(client, requests: _Requests, tracer: Tracer,
                  measurement: Measurement):
    started = perf_counter()
    for index in range(TRACE_MISSES):
        miss(client, requests.text(index))
    untraced_s = perf_counter() - started
    submits, polls, served = [], 0, {}
    started = perf_counter()
    for index in range(TRACE_MISSES, 2 * TRACE_MISSES):
        tracer.run_id = f"service_miss/{index}"
        measurement.attempted += 1
        try:
            _, submit_s, n, digest, _ = tracer.call(
                "op", miss, client, requests.text(index), tracer.call)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            measurement.fail(f"request {index}: {exc}")
            continue
        submits.append(submit_s)
        polls += n
        served[index] = digest
    traced_s = perf_counter() - started
    for index, digest in served.items():
        if _local_digest(requests.text(index)) != digest:
            measurement.fail(f"request {index}: service digest differs "
                             f"from an in-process run")
    return untraced_s, traced_s, submits, polls


def _trace_hits(client, requests: _Requests, tracer: Tracer,
                measurement: Measurement):
    texts, digests, _ = _populate(client, requests)
    started = perf_counter()
    for index in range(TRACE_HITS):
        hit(client, texts[index % HIT_SET], digests[index % HIT_SET])
    untraced_s = perf_counter() - started
    submits = []
    started = perf_counter()
    for index in range(TRACE_HITS):
        tracer.run_id = f"service_hit/{index}"
        measurement.attempted += 1
        try:
            submits.append(tracer.call(
                "op", hit, client, texts[index % HIT_SET],
                digests[index % HIT_SET], tracer.call))
        except Exception as exc:  # noqa: BLE001 - counted, reported
            measurement.fail(f"request {index}: {exc}")
    traced_s = perf_counter() - started
    _verify_by_digest(client, digests, measurement)
    return untraced_s, traced_s, submits, 0
