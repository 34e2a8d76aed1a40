"""Tests for the analysis service: daemon, job queue wiring, client.

The acceptance contract: a running daemon handles many concurrent
analyze requests through one shared worker pool; identical concurrent
requests coalesce to a single computation (verified by scan counters);
warm repeat requests perform zero scans; every response is bit-identical
to offline ``repro analyze``; the backlog is bounded (429) and deadlines
cancel pending work naming the task the plan stopped at.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlparse

import pytest

from repro.core import analyze_stream
from repro.engine import (
    MeasureSpec,
    SweepCache,
    SweepEngine,
    parse_measures_arg,
    register_measure,
    unregister_measure,
)
from repro.generators import time_uniform_stream
from repro.linkstream import read_tsv, write_tsv
from repro.reporting import render_analysis
from repro.service import AnalysisService, ServiceClient
from repro.service.daemon import MAX_BODY_BYTES, ServiceServer
from repro.temporal.reachability import SCAN_COUNTS
from repro.utils.errors import (
    AdmissionError,
    JobCancelled,
    ReproError,
    ServiceError,
)


@dataclass(frozen=True)
class SnailMeasure(MeasureSpec):
    """A deliberately slow payload measure: keeps computations in flight
    long enough for coalescing/deadline tests to be deterministic."""

    pause: float = 0.05

    has_payload = True

    @property
    def name(self) -> str:
        return "snail"

    def series_payload(self, series):
        time.sleep(self.pause)
        return len(series)

    def finalize(self, delta, geometry, payload, collectors):
        return payload


@pytest.fixture(scope="module", autouse=True)
def _snail_registered():
    register_measure(SnailMeasure)
    yield
    unregister_measure("snail")


@pytest.fixture(scope="module")
def stream():
    return time_uniform_stream(12, 6, 5000.0, seed=3)


@pytest.fixture
def service():
    # jobs=2 keeps auto-sharding off for the grids used here (enough
    # tasks per plan), so scan counts stay exactly one per Δ.
    with AnalysisService(jobs=2, runners=2, max_pending=8) as svc:
        yield svc


def offline_text(stream, *, measures="occupancy", **kwargs) -> str:
    """What `repro analyze` prints for this stream, computed offline on a
    private engine (fresh cache, serial backend)."""
    if isinstance(measures, str):
        measures = parse_measures_arg(measures)
    with SweepEngine("serial", cache=SweepCache.build()) as engine:
        report = analyze_stream(
            stream, validate=False, engine=engine, measures=measures, **kwargs
        )
    return render_analysis(report)


def wait_for_running(job, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while job.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert job.state == "running"


class TestServiceCore:
    def test_register_stream_is_idempotent(self, service, stream):
        first = service.register_stream(stream)
        second = service.register_stream(stream)
        assert first == second
        assert len(service.list_streams()) == 1

    def test_unknown_fingerprint_is_404(self, service):
        with pytest.raises(ServiceError, match="unknown stream") as excinfo:
            service.submit_analyze("deadbeef")
        assert excinfo.value.status == 404

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="unknown job") as excinfo:
            service.status("nope")
        assert excinfo.value.status == 404

    def test_analyze_result_matches_offline(self, service, stream):
        fingerprint = service.register_stream(stream)
        job = service.submit_analyze(fingerprint, num_deltas=8)
        result = job.result(60)
        assert result["kind"] == "analyze"
        assert result["text"] == offline_text(stream, num_deltas=8)
        assert result["gamma"] > 0

    def test_concurrent_requests_bit_identical(self, service, stream):
        """8 concurrent analyze requests through the one shared pool, all
        byte-for-byte equal to the offline rendering."""
        fingerprint = service.register_stream(stream)
        jobs, errors = [], []
        lock = threading.Lock()

        def submit():
            try:
                job = service.submit_analyze(fingerprint, num_deltas=8)
                with lock:
                    jobs.append(job)
            except Exception as exc:  # pragma: no cover - fail loudly below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected = offline_text(stream, num_deltas=8)
        texts = {job.result(60)["text"] for job in jobs}
        assert texts == {expected}

    def test_identical_concurrent_submissions_coalesce_to_one_scan(
        self, service, stream
    ):
        """N identical in-flight submissions -> exactly one computation:
        the scan counters advance by a single request's worth."""
        fingerprint = service.register_stream(stream)
        kwargs = dict(measures="occupancy,snail:pause=0.08", num_deltas=6)
        before = SCAN_COUNTS["series"]
        first = service.submit_analyze(fingerprint, **kwargs)
        attached = [service.submit_analyze(fingerprint, **kwargs) for _ in range(5)]
        results = [job.result(60) for job in [first, *attached]]
        burst_scans = SCAN_COUNTS["series"] - before
        assert all(job.coalesced for job in attached)
        assert service.queue.stats()["coalesced"] == 5
        # The 6-request burst cost exactly what one offline run costs on
        # the same stream and grid — one computation, not six.
        before = SCAN_COUNTS["series"]
        expected = offline_text(stream, **kwargs)
        single_scans = SCAN_COUNTS["series"] - before
        assert single_scans > 0
        assert burst_scans == single_scans
        assert {r["text"] for r in results} == {expected}

    def test_warm_repeat_performs_zero_scans(self, service, stream):
        fingerprint = service.register_stream(stream)
        first = service.submit_analyze(fingerprint, num_deltas=6).result(60)
        before_series = SCAN_COUNTS["series"]
        before_stream = SCAN_COUNTS["stream"]
        again = service.submit_analyze(fingerprint, num_deltas=6).result(60)
        assert SCAN_COUNTS["series"] == before_series
        assert SCAN_COUNTS["stream"] == before_stream
        assert again["text"] == first["text"]

    def test_admission_control_rejects_when_full(self, stream):
        with AnalysisService(jobs=2, runners=1, max_pending=1) as svc:
            fingerprint = svc.register_stream(stream)
            slow = svc.submit_analyze(
                fingerprint, measures="occupancy,snail:pause=0.2", num_deltas=4
            )
            wait_for_running(slow)
            # The runner is busy: this distinct request fills the single
            # backlog slot, the next one is turned away.
            queued = svc.submit_analyze(fingerprint, num_deltas=5)
            with pytest.raises(AdmissionError, match="job queue full"):
                svc.submit_analyze(fingerprint, num_deltas=7)
            assert svc.queue.stats()["rejected"] == 1
            slow.result(60)
            queued.result(60)

    def test_deadline_cancellation_names_delta_and_kind(self, stream):
        with AnalysisService(jobs=2, runners=1) as svc:
            fingerprint = svc.register_stream(stream)
            job = svc.submit_analyze(
                fingerprint,
                measures="occupancy,snail:pause=0.1",
                num_deltas=12,
                timeout=0.25,
            )
            with pytest.raises(JobCancelled) as excinfo:
                job.result(60)
            assert job.state == "cancelled"
            # The deadline cut the sweep mid-plan: the error names the
            # fused task kind and the Δ it stopped at.
            assert re.search(
                r"deadline exceeded before analysis task at delta=[0-9.e+-]+",
                str(excinfo.value),
            )

    def test_append_registers_grown_stream_with_lineage(self, service, stream):
        fingerprint = service.register_stream(stream)
        t0 = int(stream.t_max)
        response = service.append_events(
            fingerprint, [[0, 1, t0 + 1], [2, 3, t0 + 2]]
        )
        assert response["parent"] == fingerprint
        assert response["appended"] == 2
        assert response["num_events"] == stream.num_events + 2
        grown = service.stream(response["fingerprint"])
        assert grown.fingerprint_chain[-1] == (stream.num_events, fingerprint)
        # Both registrations stay addressable.
        fingerprints = {s["fingerprint"] for s in service.list_streams()}
        assert {fingerprint, response["fingerprint"]} <= fingerprints

    def test_append_rejects_out_of_order_batch(self, service, stream):
        fingerprint = service.register_stream(stream)
        with pytest.raises(ReproError, match="strictly greater"):
            service.append_events(fingerprint, [[0, 1, int(stream.t_min)]])

    def test_append_validates_triples(self, service, stream):
        fingerprint = service.register_stream(stream)
        with pytest.raises(ServiceError, match="triple") as excinfo:
            service.append_events(fingerprint, [[0, 1]])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError, match="number"):
            service.append_events(fingerprint, [[0, 1, "soon"]])

    def test_append_then_analyze_matches_offline(self, service, stream):
        fingerprint = service.register_stream(stream)
        service.submit_analyze(fingerprint, num_deltas=6).result(60)
        t0 = int(stream.t_max)
        events = [[0, 1, t0 + 40], [4, 5, t0 + 90], [1, 2, t0 + 130]]
        response = service.append_events(fingerprint, events)
        warm = service.submit_analyze(
            response["fingerprint"], num_deltas=6
        ).result(60)
        grown = stream.extend([tuple(e) for e in events])
        assert warm["text"] == offline_text(grown, num_deltas=6)

    def test_sweep_job(self, service, stream):
        fingerprint = service.register_stream(stream)
        job = service.submit_sweep(
            fingerprint, measures="occupancy,trips:max_samples=4", num_deltas=5
        )
        result = job.result(60)
        assert result["kind"] == "sweep"
        assert result["measures"] == ["occupancy", "trips"]
        assert len(result["deltas"]) == len(result["summaries"]["trips"])


@pytest.fixture(scope="module")
def daemon(stream, _snail_registered):
    """A live HTTP daemon on an ephemeral port (module-scoped: warm
    state across requests is exactly the daemon's value proposition)."""
    service = AnalysisService(jobs=2, runners=2, max_pending=8)
    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield client
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture(scope="module")
def events_file(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("service") / "events.tsv"
    write_tsv(stream, path)
    return path


class TestHTTPDaemon:
    def test_health(self, daemon):
        payload = daemon.health()
        assert payload["status"] == "ok"
        assert "queue" in payload

    def test_upload_analyze_fetch_roundtrip(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(fingerprint, num_deltas=8)
        assert job["state"] in ("queued", "running", "done")
        result = daemon.fetch(job["job_id"], wait=60)
        # Bit-identity against an offline analyze of the same file (the
        # file, not the in-memory stream: TSV rounds timestamps).
        assert result["text"] == offline_text(read_tsv(events_file), num_deltas=8)

    def test_upload_is_idempotent(self, daemon, events_file):
        first = daemon.upload_stream(str(events_file))
        second = daemon.upload_stream(str(events_file))
        assert first == second
        assert len([s for s in daemon.streams() if s["fingerprint"] == first]) == 1

    def test_status_and_jobs_listing(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(fingerprint, num_deltas=6)
        status = daemon.status(job["job_id"])
        assert status["job_id"] == job["job_id"]
        assert any(j["job_id"] == job["job_id"] for j in daemon.jobs())
        daemon.fetch(job["job_id"], wait=60)

    def test_result_before_done_is_409(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(
            fingerprint, measures="occupancy,snail:pause=0.2", num_deltas=4
        )
        with pytest.raises(ServiceError, match="not done yet") as excinfo:
            daemon.fetch(job["job_id"])
        assert excinfo.value.status == 409
        daemon.fetch(job["job_id"], wait=60)  # drain

    def test_client_error_mapping(self, daemon):
        # Unknown stream -> 404 ServiceError.
        with pytest.raises(ServiceError) as excinfo:
            daemon.analyze("deadbeef")
        assert excinfo.value.status == 404
        # Unknown job -> 404.
        with pytest.raises(ServiceError) as excinfo:
            daemon.status("nope")
        assert excinfo.value.status == 404
        # Unknown path -> 404 with the API hint.
        with pytest.raises(ServiceError, match="API is under") as excinfo:
            daemon._request("GET", "/v2/health")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("length", ["many", "-5", "-1"])
    def test_bad_content_length_is_400(self, daemon, length):
        # Non-integer and most negative lengths used to surface as a
        # 500; -1 blocked the handler on read(-1) until the client hung
        # up.
        url = urlparse(daemon.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/streams")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in payload["error"]
        assert daemon.health()["status"] == "ok"

    def test_oversized_body_is_413_before_reading(self, daemon):
        # A declared length above the cap is refused without buffering
        # the body (none is sent here: a read would block until the
        # timeout), and the connection is closed.
        url = urlparse(daemon.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/streams")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            closing = response.getheader("Connection")
        finally:
            conn.close()
        assert response.status == 413
        assert payload["kind"] == "too_large"
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert closing == "close"
        assert daemon.health()["status"] == "ok"

    def test_oversized_body_streamed_anyway_still_reads_413(self, daemon):
        # A client that sends the whole oversized body before reading
        # must get the 413, not a reset from a close over unread data.
        url = urlparse(daemon.base_url)
        size = MAX_BODY_BYTES + 1
        chunk = bytes(1 << 20)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/streams")
            conn.putheader("Content-Length", str(size))
            conn.endheaders()
            sent = 0
            while sent < size:
                part = chunk[: size - sent]
                conn.send(part)
                sent += len(part)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        assert payload["kind"] == "too_large"
        assert daemon.health()["status"] == "ok"

    def test_non_utf8_stream_body_is_400(self, daemon):
        with pytest.raises(ServiceError, match="not UTF-8") as excinfo:
            daemon._request("POST", "/v1/streams", raw_body=b"0\t1\t\xff\n")
        assert excinfo.value.status == 400
        assert daemon.health()["status"] == "ok"

    @pytest.mark.parametrize("value", ["abc", [3]])
    def test_non_integer_num_deltas_is_400(self, daemon, events_file, value):
        fingerprint = daemon.upload_stream(str(events_file))
        with pytest.raises(ServiceError, match="'num_deltas'") as excinfo:
            daemon._request(
                "POST",
                "/v1/analyze",
                json_body={"fingerprint": fingerprint, "num_deltas": value},
            )
        assert excinfo.value.status == 400
        assert daemon.health()["status"] == "ok"

    def test_bad_measures_is_client_error(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        with pytest.raises(ServiceError) as excinfo:
            daemon.analyze(fingerprint, measures="doesnotexist")
        assert excinfo.value.status == 400

    def test_cancelled_job_maps_to_jobcancelled(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(
            fingerprint,
            measures="occupancy,snail:pause=0.1",
            num_deltas=12,
            timeout=0.25,
        )
        with pytest.raises(JobCancelled, match="task at delta="):
            daemon.fetch(job["job_id"], wait=60)

    def test_admission_maps_to_admissionerror(self, stream):
        service = AnalysisService(jobs=2, runners=1, max_pending=1)
        server = ServiceServer(("127.0.0.1", 0), service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            fingerprint = service.register_stream(stream)
            slow = service.submit_analyze(
                fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=4
            )
            wait_for_running(slow)
            client.analyze(fingerprint, num_deltas=5)  # fills the backlog
            with pytest.raises(AdmissionError):
                client.analyze(fingerprint, num_deltas=7)
            slow.result(60)
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_explicit_cancel_roundtrip(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(
            fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=6
        )
        cancelled = daemon.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(JobCancelled):
            daemon.fetch(job["job_id"], wait=10)

    def test_shutdown_endpoint(self, stream):
        service = AnalysisService(jobs=2, runners=1)
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            assert client.shutdown()["status"] == "shutting down"
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.server_close()
            service.close()

    def test_unreachable_daemon_is_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
