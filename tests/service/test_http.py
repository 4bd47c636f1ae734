"""HTTP transport round trips against an in-process server.

Every server here uses the inline executor (no process churn), a
loopback socket on an ephemeral port, and the stdlib client wrapper —
the same path ``python -m repro serve --inline`` exercises.
"""

import http.client
import json
import statistics
import sys
import threading
import time

import pytest

from repro.service import (InlineExecutor, ScenarioService, ServiceClient,
                           ServiceConfig, ServiceError, ServiceHTTPServer)
from repro.service import http as service_http

from ..scenario.bad_specs import BAD_SPECS, IDS, bad_spec
from .conftest import service_spec


@pytest.fixture(name="server")
def server_fixture():
    service = ScenarioService(ServiceConfig(),
                              executor=InlineExecutor())
    server = ServiceHTTPServer(service).start()
    yield server
    server.stop()


@pytest.fixture(name="client")
def client_fixture(server) -> ServiceClient:
    with ServiceClient(server.address, tenant="pytest") as client:
        yield client


def count_accepted(server: ServiceHTTPServer, monkeypatch) -> list:
    """Record every connection ``server`` accepts from now on."""
    inner = server._httpd
    accept = inner.get_request
    accepted = []

    def counting():
        request = accept()
        accepted.append(request[1])
        return request

    monkeypatch.setattr(inner, "get_request", counting)
    return accepted


def fan_out(client: ServiceClient, threads: int, calls: int) -> list:
    """``calls`` tenant lookups on each of ``threads`` threads sharing
    ``client``; returns the failures (empty when every call answered
    with its own tenant)."""
    failures = []

    def worker(index: int) -> None:
        for call in range(calls):
            tenant = f"t{index}-{call}"
            try:
                if client.tenant_stats(tenant)["tenant"] != tenant:
                    failures.append(f"{tenant}: wrong response")
            except Exception as exc:  # noqa: BLE001 - collected, asserted
                failures.append(f"{tenant}: {exc!r}")

    workers = [threading.Thread(target=worker, args=(index,))
               for index in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a client thread hung"
    return failures


class TestRunLifecycle:
    def test_submit_wait_result(self, client):
        spec = service_spec()
        outcome = client.submit(spec.to_json())
        assert outcome["status"] == 202
        digest, result_json = client.wait(outcome["job_id"], timeout=60)
        assert digest == spec.run().digest()
        assert json.loads(result_json)["name"] == "service-unit"
        events = client.events(outcome["job_id"])
        assert [state for _, state in events["transitions"]] == [
            "queued", "running", "done"]

    def test_cached_resubmit_identical_digest(self, client):
        spec = service_spec()
        first = client.submit(spec.to_json())
        digest, _ = client.wait(first["job_id"], timeout=60)
        again = client.submit(spec.to_json())
        assert again["status"] == 200
        assert again["cached"] is True
        assert again["result_digest"] == digest
        assert client.result_by_digest(digest) != ""

    def test_invalid_spec_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("{not json")
        assert excinfo.value.status == 400
        assert excinfo.value.retry_after == 0.0

    def test_non_object_spec_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("[]")
        assert excinfo.value.status == 400
        assert "must be a JSON object" in excinfo.value.body["error"]

    def test_non_object_section_is_400(self, client):
        data = service_spec().to_dict()
        data["scheduler"] = []
        with pytest.raises(ServiceError) as excinfo:
            client.submit(json.dumps(data))
        assert excinfo.value.status == 400
        assert ("scheduler must be a JSON object"
                in excinfo.value.body["error"])

    def test_non_numeric_max_time_is_400_not_a_breaker_trip(self, server,
                                                            client):
        """A spec that fails every attempt must not reach the workers,
        where its failures would open the breaker for every tenant."""
        data = service_spec().to_dict()
        data["max_time"] = "nan"
        with pytest.raises(ServiceError) as excinfo:
            client.submit(json.dumps(data))
        assert excinfo.value.status == 400
        assert "max_time must be a number" in excinfo.value.body["error"]
        assert client.health()["breaker"] == "closed"
        with ServiceClient(server.address, tenant="other") as other:
            outcome = other.submit(service_spec().to_json())
            assert outcome["status"] == 202
            other.wait(outcome["job_id"], timeout=60)

    @pytest.mark.parametrize("case", BAD_SPECS, ids=IDS)
    def test_bad_spec_field_is_400(self, client, case):
        # A bad field is a 400 at submit: never an admitted job, never
        # a connection dropped without an answer.
        _, name, updates, _, message = case
        with pytest.raises(ServiceError) as excinfo:
            client.submit(json.dumps(bad_spec(name, updates)))
        assert excinfo.value.status == 400
        assert message in excinfo.value.body["error"]

    def test_infinite_max_time_is_400(self, client):
        data = service_spec().to_dict()
        data["max_time"] = float("inf")
        with pytest.raises(ServiceError) as excinfo:
            client.submit(json.dumps(data))
        assert excinfo.value.status == 400
        assert ("max_time must be finite and positive"
                in excinfo.value.body["error"])

    def test_unknown_routes_and_ids(self, client):
        for call in (lambda: client.status("ghost"),
                     lambda: client.result("ghost"),
                     lambda: client.sweep_status("ghost"),
                     lambda: client.result_by_digest("ghost")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_introspection_endpoints(self, client):
        health = client.health()
        assert health["status"] == "ok"
        metrics = client.metrics()
        assert "service.submissions" in metrics["counters"]
        slo = client.slo()
        assert "service-availability" in slo["slo"]
        stats = client.tenant_stats()
        assert stats["tenant"] == "pytest"


class TestSweepLifecycle:
    def test_sweep_round_trip(self, client):
        spec = service_spec()
        outcome = client.submit_sweep(spec.to_json(), {"seeds": [1, 2]})
        assert outcome["status"] == 202
        digest = None
        for _ in range(600):
            status = client.sweep_status(outcome["sweep_id"])
            if status["done"]:
                digest, report_json = client.sweep_result(
                    outcome["sweep_id"])
                break
            time.sleep(0.01)
        assert digest, "sweep did not finish"
        report = json.loads(report_json)
        assert len(report["runs"]) == 2
        assert "failed" not in report


class TestMetricsNegotiation:
    def test_default_format_is_json(self, client):
        metrics = client.metrics()
        assert "service.submissions" in metrics["counters"]

    def test_openmetrics_format_and_content_type(self, client):
        headers, text = client._call(
            "GET", "/v1/metrics?format=openmetrics")
        assert headers["Content-Type"].startswith(
            "application/openmetrics-text")
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_service_submissions counter" in text

    def test_unknown_format_is_406_with_json_body(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("GET", "/v1/metrics?format=xml")
        assert excinfo.value.status == 406
        assert excinfo.value.body["supported"] == ["json", "openmetrics"]
        assert "xml" in excinfo.value.body["error"]


class TestTelemetryRoutes:
    @pytest.fixture(name="observed")
    def observed_fixture(self):
        service = ScenarioService(ServiceConfig(observe=True),
                                  executor=InlineExecutor())
        server = ServiceHTTPServer(service).start()
        try:
            with ServiceClient(server.address, tenant="pytest") as client:
                yield client
        finally:
            server.stop()

    def test_run_telemetry_round_trip(self, observed):
        outcome = observed.submit(service_spec().to_json())
        observed.wait(outcome["job_id"], timeout=60)
        digest, telemetry_json = observed.run_telemetry(
            outcome["job_id"])
        snapshot = json.loads(telemetry_json)
        assert snapshot["run_id"] == f"pytest/{outcome['job_id']}"
        assert observed.telemetry_by_digest(digest) == telemetry_json
        events = observed.service_events()
        assert [e["kind"] for e in events] == [
            "job-admitted", "run-observed", "job-done"]
        assert events[1]["telemetry_digest"] == digest

    def test_unobserved_server_has_no_telemetry(self, client):
        outcome = client.submit(service_spec().to_json())
        client.wait(outcome["job_id"], timeout=60)
        with pytest.raises(ServiceError) as excinfo:
            client.run_telemetry(outcome["job_id"])
        assert excinfo.value.status == 404

    def test_openmetrics_exposes_fleet_plane(self, observed):
        outcome = observed.submit(service_spec().to_json())
        observed.wait(outcome["job_id"], timeout=60)
        text = observed.metrics_openmetrics()
        assert 'plane="fleet"' in text
        assert "repro_scheduler_tasks_completed_total" in text


class TestDegradation:
    def test_429_carries_retry_after_header(self):
        """Deterministic shed: no dispatcher, so the queue stays full."""
        service = ScenarioService(
            ServiceConfig(max_queue=8, tenant_quota=1),
            executor=InlineExecutor())
        server = ServiceHTTPServer(service).start(dispatch=False)
        try:
            with ServiceClient(server.address, tenant="greedy") as client:
                assert client.submit(
                    service_spec(seed=1).to_json())["status"] == 202
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(service_spec(seed=2).to_json())
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "tenant-quota"
            assert excinfo.value.retry_after > 0
        finally:
            server.stop()


class TestBridgeWake:
    def test_only_an_admission_wakes_the_dispatcher(self):
        service = ScenarioService(ServiceConfig(tenant_quota=1),
                                  executor=InlineExecutor())
        wake = threading.Event()
        bridge = service_http._Bridge(service, threading.Lock(), wake)
        body = service_spec().to_json()
        assert bridge.submit(body).status == 202
        assert wake.is_set()
        wake.clear()
        assert bridge.submit(service_spec(seed=2).to_json()).status == 429
        assert bridge.submit("{not json").status == 400
        assert not wake.is_set()
        service.pump()
        assert bridge.submit(body).status == 200
        assert not wake.is_set()
        assert bridge.submit_sweep(body, {"seeds": [1]}).status == 202
        assert wake.is_set()


class TestTransport:
    def test_calls_share_one_connection(self, server, client, monkeypatch):
        accepted = count_accepted(server, monkeypatch)
        for _ in range(20):
            assert client.health()["status"] == "ok"
        assert len(accepted) == 1

    def test_kept_alive_responses_are_not_delayed(self, client):
        """Nagle plus delayed ACK would stall each response ~40 ms."""
        client.health()
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            client.health()
            latencies.append(time.perf_counter() - started)
        assert statistics.median(latencies) < 0.020

    def test_idle_connection_is_closed_and_replaced(self, server, client,
                                                    monkeypatch):
        monkeypatch.setattr(service_http, "IDLE_TIMEOUT_S", 0.2)
        accepted = count_accepted(server, monkeypatch)
        assert client.health()["status"] == "ok"
        time.sleep(0.5)
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2

    @pytest.mark.parametrize("error, reported", [
        (ConnectionResetError(104, "Connection reset by peer"), False),
        (RuntimeError("bridge broke"), True)])
    def test_handler_errors_are_reported_unless_the_client_hung_up(
            self, server, capfd, monkeypatch, error, reported):
        def broken():
            raise error

        monkeypatch.setattr(server.service, "health", broken)
        capfd.readouterr()
        # The handler reports the error before it closes the
        # connection, so the report is written once the client fails.
        with ServiceClient(server.address) as client:
            with pytest.raises(OSError):
                client.health()
        err = capfd.readouterr().err
        assert ("Exception occurred during processing" in err) is reported
        assert (f"{type(error).__name__}: " in err) is reported

    def test_stopped_server_stops_answering(self):
        server = ServiceHTTPServer(ScenarioService(
            ServiceConfig(), executor=InlineExecutor())).start()
        with ServiceClient(server.address) as client:
            assert client.health()["status"] == "ok"
            server.stop()
            with pytest.raises(OSError):
                client.health()

    def test_shared_client_across_threads(self, server, client,
                                          monkeypatch):
        accepted = count_accepted(server, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            failures = fan_out(client, threads=4, calls=25)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert 1 <= len(accepted) <= 4

    def test_close_and_with_release_every_socket(self, server):
        client = ServiceClient(server.address)
        assert fan_out(client, threads=3, calls=5) == []
        sockets = [connection.sock for connection in client._idle]
        assert sockets
        client.close()
        assert all(sock.fileno() == -1 for sock in sockets)
        with ServiceClient(server.address) as scoped:
            scoped.health()
            sockets = [connection.sock for connection in scoped._idle]
        assert len(sockets) == 1 and sockets[0].fileno() == -1

    def test_base_url_schemes_and_prefix(self, server):
        for url in ("ftp://127.0.0.1:1", "127.0.0.1:8765", "http://"):
            with pytest.raises(ValueError):
                ServiceClient(url)
        with ServiceClient(server.address + "/prefix/") as prefixed:
            with pytest.raises(ServiceError) as excinfo:
                prefixed.health()
        assert excinfo.value.body["error"] == "no route /prefix/v1/health"
        tls = server.address.replace("http://", "https://")
        with ServiceClient(tls, timeout=2.0) as secure:
            with pytest.raises(OSError):   # a TLS handshake, refused
                secure.health()


class TestRefusedBody:
    """A refused request body must not poison a kept-alive connection."""

    @pytest.fixture(name="connection")
    def connection_fixture(self, server, monkeypatch):
        monkeypatch.setattr(service_http, "MAX_BODY_BYTES", 16)
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        yield connection
        connection.close()

    @staticmethod
    def assert_refused(response: http.client.HTTPResponse) -> None:
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        assert json.loads(response.read())["status"] == 400

    def test_non_numeric_length(self, connection):
        connection.putrequest("POST", "/v1/runs")
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        self.assert_refused(connection.getresponse())

    def test_oversized_body_then_health(self, connection):
        connection.request("POST", "/v1/runs", body=b"{" + b" " * 30 + b"}")
        self.assert_refused(connection.getresponse())
        connection.request("GET", "/v1/health")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
