"""End-to-end HTTP tests against a live in-process service.

One service per test module would share queue state across tests, so
each test gets its own service on an ephemeral port; jobs use a tiny
inline netlist to keep execution under a second.
"""

import contextlib
import http.client
import json
import threading

import pytest

from repro.service.app import (ENDPOINT_NAME, RetimingService,
                               ServiceConfig, read_endpoint)
from repro.service.queue import JobQueue

TINY_BENCH = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(s1)
s1 = DFF(g2)
g1 = NAND(a, s1)
g2 = NOT(g1)
y = AND(g2, b)
"""

JOB = {"netlist": TINY_BENCH, "name": "tiny", "seed": 7,
       "frames": 2, "patterns": 16}


def request(endpoint, method, path, body=None, raw_body=None,
            headers=None):
    conn = http.client.HTTPConnection(endpoint["host"], endpoint["port"],
                                      timeout=15)
    try:
        data = raw_body
        if body is not None:
            data = json.dumps(body).encode("utf-8")
        conn.request(method, path, body=data, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        payload = raw.decode("utf-8", "replace")
        if content_type.startswith("application/json"):
            payload = json.loads(payload)
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def wait_terminal(endpoint, job_id, timeout=30.0):
    """Poll ``/jobs/<id>/result`` honoring the 409 Retry-After dance."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, headers, payload = request(
            endpoint, "GET", f"/jobs/{job_id}/result")
        if status == 200:
            return payload
        assert status == 409, (status, payload)
        time.sleep(min(0.2, float(headers.get("Retry-After", "1"))))
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@contextlib.contextmanager
def running_service(root, **overrides):
    settings = dict(root=str(root), pool=1, queue_limit=16, rate=1000.0,
                    burst=1000.0, cache=False, monitor_interval=0.1,
                    drain_timeout=15.0)
    settings.update(overrides)
    svc = RetimingService(ServiceConfig(**settings))
    exit_code = []
    thread = threading.Thread(
        target=lambda: exit_code.append(svc.serve()), daemon=True)
    thread.start()
    endpoint = read_endpoint(str(root), timeout=10.0)
    try:
        yield svc, endpoint
    finally:
        svc.initiate_drain("test teardown")
        thread.join(30.0)
    assert not thread.is_alive()
    assert exit_code == [0]


@pytest.fixture
def service(tmp_path):
    with running_service(tmp_path) as pair:
        yield pair


class TestSubmitAndResult:
    def test_full_job_round_trip(self, service):
        svc, endpoint = service
        status, headers, payload = request(endpoint, "POST", "/jobs",
                                           body=JOB)
        assert status == 202
        job_id = payload["job"]["id"]
        assert headers["Location"] == f"/jobs/{job_id}"

        status, _, shown = request(endpoint, "GET", f"/jobs/{job_id}")
        assert status == 200 and shown["job"]["id"] == job_id

        result = wait_terminal(endpoint, job_id)
        assert result["state"] == "done"
        assert result["result"]["name"] == "tiny"
        assert result["result"]["digest"].startswith("sha256:")
        assert result["result"]["record"]["row"]["circuit"] == "tiny"

    def test_validation_error_is_located_400(self, service):
        _, endpoint = service
        status, _, payload = request(
            endpoint, "POST", "/jobs",
            body={"netlist": "y = AND(a\n", "name": "broken"})
        assert status == 400
        error = payload["error"]
        assert error["field"] == "netlist" and "1:" in error["message"]

    def test_bad_json_is_400(self, service):
        _, endpoint = service
        status, _, payload = request(endpoint, "POST", "/jobs",
                                     raw_body=b"{not json",
                                     headers={"Content-Length": "9"})
        assert status == 400

    def test_unknown_job_is_404(self, service):
        _, endpoint = service
        for path in ("/jobs/j-nope", "/jobs/j-nope/result", "/nothing"):
            status, _, _ = request(endpoint, "GET", path)
            assert status == 404

    def test_rate_limit_is_429_with_retry_after(self, tmp_path):
        with running_service(tmp_path, pool=0, rate=0.5,
                             burst=1.0) as (svc, endpoint):
            status, _, _ = request(endpoint, "POST", "/jobs", body=JOB)
            assert status == 202
            status, headers, payload = request(endpoint, "POST", "/jobs",
                                               body=JOB)
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert payload["error"]["status"] == 429

    def test_full_queue_is_429(self, tmp_path):
        # pool=0 keeps every accepted job non-terminal, so the depth
        # check is deterministic.
        with running_service(tmp_path, pool=0,
                             queue_limit=4) as (svc, endpoint):
            statuses = [request(endpoint, "POST", "/jobs", body=JOB)[0]
                        for _ in range(5)]
            assert statuses == [202, 202, 202, 202, 429]


class TestHealthAndMetrics:
    def test_healthz_and_readyz(self, service):
        _, endpoint = service
        status, _, payload = request(endpoint, "GET", "/healthz")
        assert status == 200 and payload["ok"]
        status, _, payload = request(endpoint, "GET", "/readyz")
        assert status == 200

    def test_metrics_exposes_job_counters(self, service):
        _, endpoint = service
        request(endpoint, "POST", "/jobs", body=JOB)
        status, headers, text = request(endpoint, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_service_jobs_accepted" in text
        assert "repro_service_queue_queued" in text

    def test_jobs_listing(self, service):
        _, endpoint = service
        _, _, accepted = request(endpoint, "POST", "/jobs", body=JOB)
        status, _, summary = request(endpoint, "GET", "/jobs")
        assert status == 200
        listed = [job["id"] for job in summary["jobs"]]
        assert accepted["job"]["id"] in listed


class TestShedding:
    """Every path that sheds load must carry Retry-After -- a dumb
    retry loop pointed at any rejection converges without parsing."""

    def assert_shed(self, endpoint, expect_status, expect_fragment):
        status, headers, payload = request(endpoint, "POST", "/jobs",
                                           body=JOB)
        assert status == expect_status, payload
        assert float(headers["Retry-After"]) > 0
        assert payload["error"]["retry_after"] > 0
        assert expect_fragment in payload["error"]["message"]

    def test_rate_limit_429_carries_retry_after(self, tmp_path):
        with running_service(tmp_path, pool=0, rate=0.5,
                             burst=1.0) as (svc, endpoint):
            assert request(endpoint, "POST", "/jobs", body=JOB)[0] == 202
            self.assert_shed(endpoint, 429, "rate limit")

    def test_full_queue_429_carries_retry_after(self, tmp_path):
        with running_service(tmp_path, pool=0,
                             queue_limit=1) as (svc, endpoint):
            assert request(endpoint, "POST", "/jobs", body=JOB)[0] == 202
            self.assert_shed(endpoint, 429, "queue full")

    def test_drain_503_carries_retry_after(self, tmp_path):
        with running_service(tmp_path) as (svc, endpoint):
            svc.draining = True
            self.assert_shed(endpoint, 503, "draining")
            status, headers, _ = request(endpoint, "GET", "/readyz")
            assert status == 503 and "Retry-After" in headers

    def test_memory_pressure_503_carries_retry_after(self, tmp_path):
        # A 1 MiB budget is always exceeded by a live interpreter, so
        # the shed path is deterministic without faking the probe.
        with running_service(tmp_path, pool=0,
                             memory_budget_mb=1.0) as (svc, endpoint):
            self.assert_shed(endpoint, 503, "memory pressure")
            # Shedding is honest about *which* resource: the message
            # names the resident size and the budget.
            status, _, payload = request(endpoint, "POST", "/jobs",
                                         body=JOB)
            assert "MiB" in payload["error"]["message"]


class TestWorkerLiveness:
    def test_healthz_reports_worker_and_heartbeat_liveness(self, service):
        _, endpoint = service
        status, _, payload = request(endpoint, "GET", "/healthz")
        assert status == 200
        workers = payload["workers"]
        assert workers["workers_alive"] >= 1
        assert workers["heartbeat_alive"] is True
        assert workers["breaker"] == "closed"
        assert workers["healthy"] is True
        assert payload["isolation"] == "thread"

    def test_readyz_503_when_breaker_open(self, service):
        svc, endpoint = service
        svc.supervisor._breaker = "open"
        try:
            status, headers, payload = request(endpoint, "GET", "/readyz")
            assert status == 503 and "Retry-After" in headers
            assert "breaker" in payload["error"]["message"]
        finally:
            svc.supervisor._breaker = "closed"

    def test_metrics_expose_liveness_gauges(self, service):
        _, endpoint = service
        status, _, text = request(endpoint, "GET", "/metrics")
        assert status == 200
        assert "repro_service_workers_alive" in text
        assert "repro_service_heartbeat_alive" in text
        assert "repro_service_supervisor_breaker_open" in text


class TestDrain:
    def test_drain_leaves_no_leases_and_rejects_submits(self, tmp_path):
        with running_service(tmp_path) as (svc, endpoint):
            request(endpoint, "POST", "/jobs", body=JOB)
            # Flip the flag without waking the drain sequence, so the
            # HTTP server stays up while we probe the draining paths;
            # the context manager then runs the real drain.
            svc.draining = True
            status, headers, _ = request(endpoint, "POST", "/jobs",
                                         body=JOB)
            assert status == 503 and "Retry-After" in headers
            status, _, _ = request(endpoint, "GET", "/readyz")
            assert status == 503
        counts = svc.queue.counts()
        assert counts["leased"] == 0 and counts["running"] == 0
        assert not (tmp_path / ENDPOINT_NAME).exists()


class TestJobSpecFields:
    def test_core_field_is_rejected_as_unknown(self, service):
        _, endpoint = service
        status, _, payload = request(endpoint, "POST", "/jobs",
                                     body={**JOB, "core": "flat"})
        assert status == 400
        error = payload["error"]
        assert error["field"] == "core"
        assert "unknown field" in error["message"]

    def test_persisted_spec_with_stale_core_key_still_runs(self, tmp_path):
        # A queue written before the analysis-engine knob was removed
        # may hold specs carrying it; recovery must run them unchanged.
        stale = JobQueue(str(tmp_path)).submit({**JOB, "core": "object"})
        with running_service(tmp_path) as (_, endpoint):
            recovered = wait_terminal(endpoint, stale.id)
            status, _, payload = request(endpoint, "POST", "/jobs",
                                         body=JOB)
            assert status == 202
            fresh = wait_terminal(endpoint, payload["job"]["id"])
        assert recovered["state"] == fresh["state"] == "done"
        assert recovered["result"]["digest"] == fresh["result"]["digest"]
