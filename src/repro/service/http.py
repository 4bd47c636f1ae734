"""The stdlib HTTP transport for :class:`ScenarioService`.

``python -m repro serve`` binds this server.  It is deliberately
boring: a ``ThreadingHTTPServer`` accepts requests, every call into
the service core is serialized under one lock (the core is
single-threaded by contract), and a dispatcher thread pumps queued
jobs in the background so submissions return 202 immediately.  All
resilience behavior — shedding, quotas, breakers, retries, deadlines,
the cache — lives in the core and is therefore identical under the
deterministic drill and under real HTTP traffic.

Endpoints (all JSON; full semantics in ``docs/SERVICE.md``):

- ``POST /v1/runs`` — submit a spec (body = spec JSON); 202/200/400/429/503
- ``POST /v1/sweeps`` — submit ``{"spec": {...}, "axes": {...}}``
- ``GET /v1/runs/<id>`` — job status document
- ``GET /v1/runs/<id>/events`` — state-transition history (progress)
- ``GET /v1/runs/<id>/result`` — raw result JSON (+ ``X-Result-Digest``)
- ``GET /v1/runs/<id>/telemetry`` — the run's federated telemetry
  snapshot (+ ``X-Telemetry-Digest``)
- ``GET /v1/sweeps/<id>`` / ``GET /v1/sweeps/<id>/result``
- ``GET /v1/results/<digest>`` — cached result by digest
- ``GET /v1/telemetry/<digest>`` — telemetry snapshot by digest
- ``GET /v1/tenants/<tenant>`` — quota occupancy + retry budget
- ``GET /v1/health`` / ``GET /v1/metrics`` / ``GET /v1/slo``
- ``GET /v1/metrics?format=openmetrics`` — Prometheus text exposition
  (service + federated fleet planes); unknown formats get 406
- ``GET /v1/events`` — the structured service event log as JSON Lines

Shed and rejected responses carry a ``Retry-After`` header mirroring
the body's ``retry_after`` hint.

Connections are persistent (HTTP/1.1 keep-alive).  A connection idle
for :data:`IDLE_TIMEOUT_S` is closed, and :meth:`ServiceHTTPServer.stop`
closes every open one.
"""

from __future__ import annotations

import contextlib
import json
import math
import socket
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .core import ScenarioService, SubmitOutcome

__all__ = ["ServiceHTTPServer"]

#: Media type of the OpenMetrics text exposition.
OPENMETRICS_TYPE = ("application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8")

#: Cap one request body at 8 MiB — a spec is kilobytes; anything
#: larger is a client bug or abuse, and bounding it keeps one request
#: from exhausting server memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Close a connection once a read or write on it has waited this many
#: wall-clock seconds, so a quiet kept-alive client cannot pin a
#: handler thread.  :class:`~repro.service.client.ServiceClient`
#: reconnects when it finds its idle connection closed.
IDLE_TIMEOUT_S = 15.0


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning :class:`ServiceHTTPServer`."""

    protocol_version = "HTTP/1.1"
    # The headers and the body go out in two sends.  On a kept-alive
    # connection Nagle's algorithm would hold the body back until the
    # client's delayed ACK, ~40 ms per response.
    disable_nagle_algorithm = True
    server: "_InnerServer"

    def setup(self) -> None:
        """Arm the idle timeout on the connection before the first read."""
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (metrics cover it)."""

    def _tenant(self) -> str | None:
        return self.headers.get("X-Tenant") or None

    def _read_body(self) -> str | None:
        """The request body, or ``None`` (left unread) when its length
        is missing, zero, not a decimal number or over the cap."""
        declared = self.headers.get("Content-Length", "")
        length = (int(declared)
                  if declared.isascii() and declared.isdigit() else 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            return None
        return self.rfile.read(length).decode("utf-8", errors="replace")

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json",
              retry_after: float = 0.0,
              digest: str | None = None,
              digest_header: str = "X-Result-Digest",
              close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets ``close_connection``: the handler hangs up
            # after this response.
            self.send_header("Connection", "close")
        if retry_after > 0:
            self.send_header("Retry-After",
                             str(int(math.ceil(retry_after))))
        if digest is not None:
            self.send_header(digest_header, digest)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict[str, Any],
                   retry_after: float = 0.0, close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, retry_after=retry_after, close=close)

    def _send_outcome(self, outcome: SubmitOutcome,
                      raw_result: bool = False,
                      digest_header: str = "X-Result-Digest") -> None:
        """Render a core outcome; optionally as the raw result bytes.

        ``raw_result`` responses return the stored result JSON
        verbatim (so its bytes hash to the digest header); everything
        else gets the outcome's JSON envelope.
        """
        if raw_result and outcome.status == 200 and outcome.result_json:
            self._send(200, outcome.result_json.encode("utf-8"),
                       digest=outcome.result_digest,
                       digest_header=digest_header)
            return
        self._send_json(outcome.status, outcome.to_dict(),
                        retry_after=outcome.retry_after)

    def _not_found(self, what: str) -> None:
        self._send_json(404, {"status": 404, "error": f"no route {what}"})

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        """Handle submissions: ``/v1/runs`` and ``/v1/sweeps``."""
        body = self._read_body()
        if body is None:
            # Close the connection: the unread body would otherwise be
            # parsed as the next request line.
            self._send_json(400, {"status": 400,
                                  "error": "missing, malformed or "
                                           "oversized body"},
                            close=True)
            return
        bridge = self.server.bridge
        if self.path == "/v1/runs":
            self._send_outcome(bridge.submit(body, self._tenant()))
        elif self.path == "/v1/sweeps":
            try:
                request = json.loads(body)
                spec_json = json.dumps(request["spec"], sort_keys=True)
                axes = request.get("axes") or {}
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                self._send_json(400, {
                    "status": 400,
                    "error": f"sweep body must be "
                             f'{{"spec": ..., "axes": ...}}: {exc}'})
                return
            self._send_outcome(
                bridge.submit_sweep(spec_json, axes, self._tenant()))
        else:
            self._not_found(self.path)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        """Handle every read endpoint (status, results, introspection)."""
        bridge = self.server.bridge
        split = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(split.query)
        parts = [part for part in split.path.split("/") if part]
        if parts == ["v1", "health"]:
            self._send_json(200, bridge.health())
        elif parts == ["v1", "metrics"]:
            self._route_metrics(bridge, query)
        elif parts == ["v1", "slo"]:
            self._send_json(200, bridge.slo_report())
        elif parts == ["v1", "events"]:
            self._send(200, bridge.events_jsonl().encode("utf-8"),
                       content_type="application/x-ndjson")
        elif len(parts) == 3 and parts[:2] == ["v1", "results"]:
            self._send_outcome(bridge.result_by_digest(parts[2]),
                               raw_result=True)
        elif len(parts) == 3 and parts[:2] == ["v1", "telemetry"]:
            self._send_outcome(bridge.telemetry_by_digest(parts[2]),
                               raw_result=True,
                               digest_header="X-Telemetry-Digest")
        elif len(parts) == 3 and parts[:2] == ["v1", "tenants"]:
            self._send_json(200, bridge.tenant_stats(parts[2]))
        elif len(parts) >= 3 and parts[:2] == ["v1", "runs"]:
            self._route_run(bridge, parts[2], parts[3:])
        elif len(parts) >= 3 and parts[:2] == ["v1", "sweeps"]:
            self._route_sweep(bridge, parts[2], parts[3:])
        else:
            self._not_found(self.path)

    def _route_metrics(self, bridge: "_Bridge",
                       query: dict[str, list[str]]) -> None:
        """``/v1/metrics`` content negotiation via ``format=``.

        ``json`` (the default) serves the registry snapshot;
        ``openmetrics`` serves the Prometheus text exposition of both
        planes; anything else is 406 with a JSON error body naming the
        supported formats — never a silent fallback.
        """
        requested = query.get("format", ["json"])[-1]
        if requested == "json":
            self._send_json(200, bridge.metrics_snapshot())
        elif requested == "openmetrics":
            self._send(200,
                       bridge.metrics_openmetrics().encode("utf-8"),
                       content_type=OPENMETRICS_TYPE)
        else:
            self._send_json(406, {
                "status": 406,
                "error": f"unknown metrics format {requested!r}",
                "supported": ["json", "openmetrics"]})

    def _route_run(self, bridge: "_Bridge", job_id: str,
                   rest: list[str]) -> None:
        if not rest:
            status = bridge.job_status(job_id)
            if status is None:
                self._send_json(404, {"status": 404,
                                      "error": f"no job {job_id!r}"})
            else:
                self._send_json(200, status)
        elif rest == ["result"]:
            self._send_outcome(bridge.job_result(job_id), raw_result=True)
        elif rest == ["telemetry"]:
            self._send_outcome(bridge.run_telemetry(job_id),
                               raw_result=True,
                               digest_header="X-Telemetry-Digest")
        elif rest == ["events"]:
            status = bridge.job_status(job_id)
            if status is None:
                self._send_json(404, {"status": 404,
                                      "error": f"no job {job_id!r}"})
            else:
                self._send_json(200, {
                    "job_id": job_id, "state": status["state"],
                    "transitions": status["transitions"]})
        else:
            self._not_found(self.path)

    def _route_sweep(self, bridge: "_Bridge", sweep_id: str,
                     rest: list[str]) -> None:
        if not rest:
            status = bridge.sweep_status(sweep_id)
            if status is None:
                self._send_json(404, {"status": 404,
                                      "error": f"no sweep {sweep_id!r}"})
            else:
                self._send_json(200, status)
        elif rest == ["result"]:
            self._send_outcome(bridge.sweep_result(sweep_id),
                               raw_result=True)
        else:
            self._not_found(self.path)


class _Bridge:
    """Serializes every core call under one lock.

    The core is single-threaded by contract; handler threads and the
    dispatcher all go through this bridge, so "one lock around the
    core" is the entire concurrency story of the transport.
    """

    def __init__(self, service: ScenarioService,
                 lock: threading.Lock,
                 wake: threading.Event) -> None:
        self._service = service
        self._lock = lock
        self._wake = wake

    def __getattr__(self, name: str) -> Any:
        method = getattr(self._service, name)

        def call(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                result = method(*args, **kwargs)
            # Only an admission (202) queues work for the dispatcher.
            if name in ("submit", "submit_sweep") and result.status == 202:
                self._wake.set()
            return result

        return call


class _InnerServer(ThreadingHTTPServer):
    """The socket server, carrying the bridge for its handlers.

    It tracks its open connections (``socketserver`` does not track
    daemon handler threads), so a stopped server can hang up on
    kept-alive clients instead of answering them.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 bridge: _Bridge) -> None:
        super().__init__(address, _Handler)
        self.bridge = bridge
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: socket.socket,
                        client_address: Any) -> None:
        """Track the accepted connection, then serve it on a thread."""
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        """Forget the connection, then close it."""
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: socket.socket,
                     client_address: Any) -> None:
        """Report a handler's exception, unless the client hung up.

        A reset or broken connection (a client gone, or
        :meth:`ServiceHTTPServer.stop` hanging up on a kept-alive one)
        is no server fault; everything else gets socketserver's
        traceback report.
        """
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Shut down every open connection; its handler sees EOF."""
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            with contextlib.suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)


class ServiceHTTPServer:
    """A running scenario service behind stdlib HTTP.

    Args:
        service: The core to serve (owns executor, cache, metrics).
        host: Bind address (default loopback).
        port: Bind port; 0 picks a free one (see :attr:`port`).

    Lifecycle: :meth:`start` spins up the accept loop and the
    dispatcher thread that pumps queued jobs; :meth:`stop` shuts both
    down and closes the core.  Usable as a context manager.
    """

    def __init__(self, service: ScenarioService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._bridge = _Bridge(service, self._lock, self._wake)
        self._httpd = _InnerServer((host, port), self._bridge)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        """``http://host:port`` for clients."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _dispatch_loop(self) -> None:
        """Pump queued jobs until stopped; idle-waits on the wake event."""
        while not self._stop.is_set():
            with self._lock:
                worked = self.service.pump_once()
            if not worked:
                self._wake.wait(timeout=0.05)
                self._wake.clear()

    def start(self, dispatch: bool = True) -> "ServiceHTTPServer":
        """Start the accept loop (and dispatcher); returns ``self``.

        ``dispatch=False`` starts only the accept loop, leaving
        admitted jobs queued — deterministic-admission tests use it to
        observe 429s without racing the worker.
        """
        if self._threads:
            raise RuntimeError("server already started")
        self._threads = [
            threading.Thread(target=self._httpd.serve_forever,
                             name="repro-serve-accept", daemon=True)]
        if dispatch:
            self._threads.append(
                threading.Thread(target=self._dispatch_loop,
                                 name="repro-serve-dispatch",
                                 daemon=True))
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, hang up on open connections, drain the
        dispatcher, close the core."""
        self._stop.set()
        self._wake.set()
        # Every accepted connection is tracked once the accept loop
        # has returned.
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        with self._lock:
            self.service.close()

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
