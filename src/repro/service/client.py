"""A minimal polling client for the scenario service HTTP API.

Used by the CI smoke test and the end-to-end benchmark.  It speaks
HTTP/1.1 over persistent :mod:`http.client` connections and needs
nothing the standard library does not ship.  A sequence of calls
reuses one connection, so each call after the first pays neither a
TCP handshake nor a new server handler thread.  Connections go
straight to the host in ``base_url``: proxy environment variables
such as ``http_proxy`` do not apply.  The client understands the
service's degradation vocabulary: 429/503 responses raise
:class:`ServiceError` carrying the parsed ``Retry-After`` hint, so a
polite caller can honor the back-off the server asked for.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(RuntimeError):
    """A non-success response from the service.

    Attributes:
        status: The HTTP status code.
        reason: The service's machine-readable reason (may be empty).
        retry_after: Parsed ``Retry-After`` hint in seconds (0 when
            the server sent none — i.e. retrying will not help).
        body: The parsed JSON error body (may be empty).
    """

    def __init__(self, status: int, reason: str, retry_after: float,
                 body: dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {reason or 'error'}")
        self.status = status
        self.reason = reason
        self.retry_after = retry_after
        self.body = body


class ServiceClient:
    """Talks to one :class:`~repro.service.http.ServiceHTTPServer`.

    Calls reuse persistent connections.  A call takes an idle one (or
    opens one), and hands it back once the response is fully read
    unless the server asked to close it.  One client can therefore be
    shared by several threads: concurrent calls run at the same time
    on separate connections.  Release them with :meth:`close` or a
    ``with`` block.  Connection failures raise :class:`OSError`.

    Args:
        base_url: ``http://host:port`` of a running service; ``https``
            and a path prefix (``http://host/prefix``) also work.
        tenant: Tenant name attached to every request (``X-Tenant``).
        timeout: Socket timeout per request, wall-clock seconds.

    Raises:
        ValueError: ``base_url`` is not an ``http`` or ``https`` URL
            with a host.
    """

    def __init__(self, base_url: str, tenant: str = "public",
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(f"base_url must be an http or https URL "
                             f"with a host, got {base_url!r}")
        self.tenant = tenant
        self.timeout = timeout
        self._connection_type = (http.client.HTTPSConnection
                                 if split.scheme == "https"
                                 else http.client.HTTPConnection)
        self._host = split.hostname
        self._port = split.port
        self._prefix = split.path
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close every idle connection.

        Call it once no other thread is mid-call.  The client stays
        usable: a later call opens a fresh connection.
        """
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        """Use the client in a ``with`` block; returns ``self``."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close the client's connections on leaving the block."""
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: str | None = None) -> tuple[int, dict[str, str],
                                                   str]:
        payload = body.encode("utf-8") if body is not None else None
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None:
            try:
                return self._exchange(connection, method, path, payload)
            except ConnectionError:
                # The server closed this idle connection (its idle
                # timeout, a restart) before it answered.  Resending
                # once on a fresh connection is safe, even for a
                # submission: results are keyed by spec fingerprint.
                pass
        connection = self._connection_type(self._host, self._port,
                                           timeout=self.timeout)
        return self._exchange(connection, method, path, payload)

    def _exchange(self, connection: http.client.HTTPConnection,
                  method: str, path: str, payload: bytes | None
                  ) -> tuple[int, dict[str, str], str]:
        """One request on ``connection``; pools it again if kept alive."""
        try:
            connection.request(method, self._prefix + path, body=payload,
                               headers={"X-Tenant": self.tenant,
                                        "Content-Type": "application/json"})
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return response.status, dict(response.headers), text

    def _call(self, method: str, path: str,
              body: str | None = None) -> tuple[dict[str, str], str]:
        """One request; raises :class:`ServiceError` beyond 2xx."""
        status, headers, text = self._request(method, path, body)
        if 200 <= status < 300:
            return headers, text
        try:
            parsed = json.loads(text) if text else {}
        except json.JSONDecodeError:
            parsed = {"raw": text}
        raise ServiceError(status, str(parsed.get("reason", "")),
                           float(headers.get("Retry-After", 0) or 0),
                           parsed)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def submit(self, spec_json: str) -> dict[str, Any]:
        """Submit a spec; returns the admission body (202 or cached 200).

        Raises :class:`ServiceError` on 400/429/503 — inspect
        ``retry_after`` to honor the server's back-off hint.
        """
        _, text = self._call("POST", "/v1/runs", spec_json)
        return json.loads(text)

    def submit_sweep(self, spec_json: str,
                     axes: dict[str, Any]) -> dict[str, Any]:
        """Submit a sweep (spec + grid axes, admitted atomically)."""
        body = json.dumps({"spec": json.loads(spec_json), "axes": axes})
        _, text = self._call("POST", "/v1/sweeps", body)
        return json.loads(text)

    def status(self, job_id: str) -> dict[str, Any]:
        """The job's status document."""
        _, text = self._call("GET", f"/v1/runs/{job_id}")
        return json.loads(text)

    def events(self, job_id: str) -> dict[str, Any]:
        """The job's state-transition history (progress stream)."""
        _, text = self._call("GET", f"/v1/runs/{job_id}/events")
        return json.loads(text)

    def result(self, job_id: str) -> tuple[str, str]:
        """``(digest, result_json)`` for a finished job.

        Raises :class:`ServiceError` with status 409 while the job is
        still queued or running (``retry_after`` carries the poll
        hint), 410 if it failed or expired.
        """
        headers, text = self._call("GET", f"/v1/runs/{job_id}/result")
        return headers.get("X-Result-Digest", ""), text

    def result_by_digest(self, digest: str) -> str:
        """The cached result JSON whose digest is ``digest``."""
        _, text = self._call("GET", f"/v1/results/{digest}")
        return text

    def sweep_status(self, sweep_id: str) -> dict[str, Any]:
        """Child-state tallies for one sweep."""
        _, text = self._call("GET", f"/v1/sweeps/{sweep_id}")
        return json.loads(text)

    def sweep_result(self, sweep_id: str) -> tuple[str, str]:
        """``(digest, report_json)`` for a finished sweep."""
        headers, text = self._call("GET", f"/v1/sweeps/{sweep_id}/result")
        return headers.get("X-Result-Digest", ""), text

    def tenant_stats(self, tenant: str | None = None) -> dict[str, Any]:
        """Quota occupancy and retry-budget state for a tenant."""
        _, text = self._call("GET",
                             f"/v1/tenants/{tenant or self.tenant}")
        return json.loads(text)

    def health(self) -> dict[str, Any]:
        """The service health document."""
        _, text = self._call("GET", "/v1/health")
        return json.loads(text)

    def metrics(self) -> dict[str, Any]:
        """The service metrics snapshot."""
        _, text = self._call("GET", "/v1/metrics")
        return json.loads(text)

    def metrics_openmetrics(self) -> str:
        """The OpenMetrics text exposition (service + fleet planes)."""
        _, text = self._call("GET", "/v1/metrics?format=openmetrics")
        return text

    def run_telemetry(self, job_id: str) -> tuple[str, str]:
        """``(digest, telemetry_json)`` for one observed run.

        Raises :class:`ServiceError` 404 when the service is not
        observing (or the snapshot was evicted / served from cache),
        409 while the job has not executed yet.
        """
        headers, text = self._call("GET",
                                   f"/v1/runs/{job_id}/telemetry")
        return headers.get("X-Telemetry-Digest", ""), text

    def telemetry_by_digest(self, digest: str) -> str:
        """The retained telemetry snapshot whose digest is ``digest``."""
        _, text = self._call("GET", f"/v1/telemetry/{digest}")
        return text

    def service_events(self) -> list[dict[str, Any]]:
        """The structured service event log, parsed from JSON Lines."""
        _, text = self._call("GET", "/v1/events")
        return [json.loads(line) for line in text.splitlines() if line]

    def slo(self) -> dict[str, Any]:
        """The service's SLO report and alert log."""
        _, text = self._call("GET", "/v1/slo")
        return json.loads(text)

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.1) -> tuple[str, str]:
        """Poll until the job finishes; returns ``(digest, result_json)``.

        Wall-clock polling belongs in clients, never in the service's
        deterministic artifacts.  Raises :class:`ServiceError` (410)
        if the job failed, or :class:`TimeoutError` past ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.result(job_id)
            except ServiceError as exc:
                if exc.status != 409:
                    raise
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout}s")
            time.sleep(poll)
