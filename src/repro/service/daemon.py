"""The analysis daemon: warm state, bounded concurrency, HTTP+JSON.

Two layers, deliberately separable:

* :class:`AnalysisService` — the transport-free core.  It owns the
  registered streams (keyed by content fingerprint), one shared
  :class:`~repro.engine.SweepEngine` (``async`` backend + sweep cache:
  every request of every client warms the same store), and a
  :class:`~repro.engine.JobQueue` that bounds the backlog, enforces
  per-request deadlines, and coalesces identical in-flight requests.
  Tests drive this object directly — no sockets required.
* the HTTP handler + :func:`serve` — a thin JSON wire over the core
  (stdlib :mod:`http.server`; the daemon adds no dependencies).

API sketch (all JSON unless noted)::

    GET    /v1/health            liveness + queue/engine statistics
    POST   /v1/streams           upload an event file body (TSV/CSV);
                                 query: columns, format, directed
                                 -> {"fingerprint": ...}   (idempotent)
    GET    /v1/streams           registered streams
    POST   /v1/datasets          {"name", "root"?, "verify"?} — register a
                                 dataset from the partitioned catalog
                                 (:mod:`repro.datasets.catalog`) without
                                 materializing it; partitions load lazily
                                 when the first analysis touches them
                                 -> {"fingerprint": ...}
    POST   /v1/append           {"fingerprint", "events": [[u, v, t], ...]}
                                 -> {"fingerprint": grown, "parent": ...};
                                 the grown stream registers alongside its
                                 parent and analyses of it reuse the
                                 parent's warm series and scan state
    POST   /v1/analyze           {"fingerprint", "measures", "num_deltas",
                                  "method", "refine", "validate",
                                  "timeout"} -> 202 {"job_id", ...}
    POST   /v1/sweep             {"fingerprint", "measures", "num_deltas",
                                  "timeout"} -> 202 {"job_id", ...}
    GET    /v1/jobs              every job's status
    GET    /v1/jobs/<id>         one job's status
    GET    /v1/jobs/<id>/result  the result; ?wait=SECONDS long-polls
    DELETE /v1/jobs/<id>         cancel the job
    POST   /v1/shutdown          stop the daemon (used by smoke tests)

**Coalescing semantics.**  Two analyze submissions are *identical* when
their stream fingerprint, measure tokens (parameters included), Δ-grid
size, selection method, refinement rounds, and validate flag all match.
An identical submission arriving while the first is queued or running
does not start new work: it attaches to the in-flight computation, may
extend (never tighten) its deadline, and receives the identical result
object.  A submission arriving *after* completion starts a new job, but
the sweep cache serves it without recomputing — warm repeats perform
zero scans.

**Error mapping** (mirrored by the client): admission-control rejection
→ 429, unknown stream/job → 404, result not ready → 409, cancelled or
deadline-expired job → 504 (the body names the task the plan stopped
at), invalid request → 400, anything else → 500.  Bodies are
``{"error": message, "kind": ...}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core import analyze_stream, log_delta_grid
from repro.datasets import open_dataset
from repro.engine import (
    JobQueue,
    SweepCache,
    SweepEngine,
    normalize_measures,
    parse_measures_arg,
    plan_measure_sweep,
)
from repro.engine.jobs import DONE, FAILED, CANCELLED, Job
from repro.linkstream import read_csv, read_tsv
from repro.linkstream.stream import LinkStream
from repro.reporting import render_analysis
from repro.utils.errors import (
    AdmissionError,
    JobCancelled,
    ReproError,
    ServiceError,
)
from repro.utils.timeunits import format_duration

#: Service protocol version (the ``/v1/`` URL prefix).
API_VERSION = "v1"

#: Largest request body the daemon reads.  A declared ``Content-Length``
#: above it is refused with a 413 before a byte is buffered; streams
#: larger than this belong in a catalog (``repro datasets ingest``).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: How long the daemon keeps reading and dropping a refused body after
#: its 413.  Closing a socket with unread data resets the connection,
#: and a client still sending the body would see the reset, not the 413.
DISCARD_SECONDS = 5.0


def _coalesce_key(kind: str, fingerprint: str, specs, **params) -> str:
    """Identity of a request for coalescing: the stream fingerprint, the
    measure tokens (parameters included), and every sweep-shaping
    parameter.  Matches the cache-key identity, so coalesced requests
    are exactly those whose results would be bit-identical anyway."""
    payload = repr(
        (
            kind,
            fingerprint,
            tuple(m.token() for m in specs),
            tuple(sorted(params.items())),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class AnalysisService:
    """Transport-free service core: streams, engine, job queue.

    Parameters
    ----------
    backend:
        Engine backend spec (default ``"async"`` — the shared thread
        pool all jobs' sweeps run on).
    jobs:
        Backend worker count (default: the CPU count).
    runners:
        Concurrent jobs; each runner blocks on its job's sweeps, the
        parallelism lives in the backend pool below.
    max_pending:
        Admission limit — queued computations beyond this are rejected
        with a 429-style :class:`~repro.utils.errors.AdmissionError`.
    default_timeout:
        Deadline (seconds) applied to requests that don't set their own.
    cache_dir:
        Optional persistent sweep-cache directory.
    """

    def __init__(
        self,
        *,
        backend: str = "async",
        jobs: int | None = None,
        runners: int = 4,
        max_pending: int = 32,
        default_timeout: float | None = None,
        cache_dir: str | None = None,
    ) -> None:
        self.engine = SweepEngine(
            backend,
            jobs=jobs,
            cache=SweepCache.build(disk_dir=cache_dir),
        )
        self.queue = JobQueue(runners=runners, max_pending=max_pending)
        self.default_timeout = default_timeout
        self._streams: dict[str, LinkStream] = {}
        self._lock = threading.Lock()

    # -- streams -----------------------------------------------------------

    def register_stream(self, stream: LinkStream) -> str:
        """Register a stream under its content fingerprint (idempotent:
        re-uploading the same events lands on the same entry)."""
        fingerprint = stream.fingerprint()
        with self._lock:
            self._streams.setdefault(fingerprint, stream)
        return fingerprint

    def register_stream_text(
        self,
        text: str,
        *,
        columns: str = "u v t",
        fmt: str = "tsv",
        directed: bool = True,
    ) -> str:
        """Register a stream from an uploaded event-file body."""
        reader = read_csv if fmt == "csv" else read_tsv
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=f".{fmt}", encoding="utf-8", delete=False
        )
        try:
            handle.write(text)
            handle.close()
            stream = reader(handle.name, columns=columns, directed=directed)
        finally:
            os.unlink(handle.name)
        return self.register_stream(stream)

    def register_dataset(
        self, name: str, *, root: str | None = None, verify: bool = False
    ) -> str:
        """Register a dataset from the partitioned catalog by name.

        The stream arrives as a lazy :class:`PartitionedStorage` handle:
        its fingerprint comes from the catalog manifest, so registration
        opens no partition files, and analyses load only the partitions
        their windows overlap.  Cache keys match the in-memory stream's
        bit for bit, so a sweep warmed offline serves here without a
        single scan.
        """
        stream = open_dataset(name, root=root, verify=verify)
        return self.register_stream(stream)

    def stream(self, fingerprint: str) -> LinkStream:
        with self._lock:
            stream = self._streams.get(fingerprint)
        if stream is None:
            raise ServiceError(
                f"unknown stream fingerprint {fingerprint!r}; upload it first",
                status=404,
            )
        return stream

    def _resolve_node(self, stream: LinkStream, value) -> int:
        if isinstance(value, bool):
            raise ServiceError(
                f"node must be an index or label, got {value!r}", status=400
            )
        try:
            return stream.index_of(value)
        except ReproError:
            if isinstance(value, int) and value >= 0:
                # A node index beyond the current set: unlabeled streams
                # grow on append (extend rejects growth for labeled ones).
                return value
            raise

    def append_events(self, fingerprint: str, events) -> dict:
        """Append an event batch to a registered stream.

        ``events`` is a list of ``[u, v, t]`` triples; ``u``/``v`` are
        node labels (for labeled streams) or indices, ``t`` must be
        strictly later than the stream's last event (the append-only
        contract — violations map to 400).  The grown stream registers
        under its own fingerprint *alongside* its parent, whose
        fingerprint stays valid; because the chained fingerprint links
        the two, any analysis of the grown stream reuses the parent's
        warm series, scan checkpoints, and cached sweep results, and
        only re-examines the appended suffix.  Coalescing is untouched:
        requests against the new fingerprint coalesce among themselves.
        """
        stream = self.stream(fingerprint)
        rows = []
        for entry in events:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ServiceError(
                    "each appended event must be a [u, v, t] triple",
                    status=400,
                )
            u, v, t = entry
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ServiceError(
                    f"timestamp must be a number, got {t!r}", status=400
                )
            rows.append(
                (self._resolve_node(stream, u), self._resolve_node(stream, v), t)
            )
        grown = stream.extend(rows)
        new_fingerprint = self.register_stream(grown)
        return {
            "fingerprint": new_fingerprint,
            "parent": fingerprint,
            "appended": len(rows),
            "num_events": grown.num_events,
            "num_nodes": grown.num_nodes,
        }

    def list_streams(self) -> list[dict]:
        with self._lock:
            streams = dict(self._streams)
        return [
            {
                "fingerprint": fingerprint,
                "num_events": stream.num_events,
                "num_nodes": stream.num_nodes,
                "span": stream.t_max - stream.t_min,
            }
            for fingerprint, stream in sorted(streams.items())
        ]

    # -- job submission ----------------------------------------------------

    def _parse_measures(self, measures) -> tuple:
        if measures is None:
            measures = "occupancy"
        if isinstance(measures, str):
            return parse_measures_arg(measures)
        return normalize_measures(measures)

    def submit_analyze(
        self,
        fingerprint: str,
        *,
        measures="occupancy",
        num_deltas: int = 40,
        method: str = "mk",
        refine: int = 0,
        validate: bool = False,
        timeout: float | None = None,
    ) -> Job:
        """Queue a full ``analyze`` of a registered stream.

        Defaults mirror the CLI (``validate`` included — off unless
        asked, so warm repeats touch no scan at all), and the rendered
        result text is bit-identical to offline ``repro analyze``.
        """
        stream = self.stream(fingerprint)
        specs = self._parse_measures(measures)
        key = _coalesce_key(
            "analyze",
            fingerprint,
            specs,
            num_deltas=num_deltas,
            method=method,
            refine=refine,
            validate=validate,
        )
        engine = self.engine

        def run_analysis() -> dict:
            report = analyze_stream(
                stream,
                validate=validate,
                measures=specs,
                num_deltas=num_deltas,
                method=method,
                refine_rounds=refine,
                engine=engine,
            )
            return {
                "kind": "analyze",
                "fingerprint": fingerprint,
                "gamma": report.gamma,
                "gamma_human": format_duration(report.gamma),
                "text": render_analysis(report),
            }

        return self.queue.submit(
            run_analysis,
            key=key,
            timeout=self.default_timeout if timeout is None else timeout,
            label=f"analyze {fingerprint[:12]}",
        )

    def submit_sweep(
        self,
        fingerprint: str,
        *,
        measures="occupancy",
        num_deltas: int = 40,
        timeout: float | None = None,
    ) -> Job:
        """Queue a raw measure sweep (no γ selection): every measure at
        every grid Δ, summarized per point."""
        stream = self.stream(fingerprint)
        specs = self._parse_measures(measures)
        key = _coalesce_key("sweep", fingerprint, specs, num_deltas=num_deltas)
        engine = self.engine

        def run_sweep() -> dict:
            deltas = log_delta_grid(stream, num=num_deltas)
            tasks = plan_measure_sweep(deltas, specs)
            results = engine.run(stream, tasks)
            summaries: dict[str, list[str]] = {m.name: [] for m in specs}
            for per_delta in results:
                for spec in specs:
                    value = per_delta[spec.name]
                    describe = getattr(value, "describe", None)
                    summaries[spec.name].append(
                        describe() if callable(describe) else repr(value)
                    )
            return {
                "kind": "sweep",
                "fingerprint": fingerprint,
                "deltas": [float(d) for d in deltas],
                "measures": [m.name for m in specs],
                "summaries": summaries,
            }

        return self.queue.submit(
            run_sweep,
            key=key,
            timeout=self.default_timeout if timeout is None else timeout,
            label=f"sweep {fingerprint[:12]}",
        )

    # -- job inspection ----------------------------------------------------

    def _job(self, job_id: str) -> Job:
        job = self.queue.job(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def status(self, job_id: str) -> dict:
        return self.describe_job(self._job(job_id))

    @staticmethod
    def describe_job(job: Job) -> dict:
        record = {
            "job_id": job.id,
            "state": job.state,
            "label": job.label,
            "coalesced": job.coalesced,
        }
        error = job.error
        if error is not None:
            record["error"] = str(error)
        return record

    def result(self, job_id: str, *, wait: float | None = None) -> dict:
        """A finished job's result payload.

        ``wait`` long-polls up to that many seconds.  A job that is
        still live afterwards raises 409; a cancelled job raises 504
        with the cancellation message (which names the task the plan
        stopped at when a deadline cut a sweep short); a failed job
        raises 500 carrying the failure.
        """
        job = self._job(job_id)
        if wait:
            job.wait(wait)
        state = job.state
        if state == DONE:
            return {"job_id": job.id, "state": state, "result": job.result(0)}
        if state == CANCELLED:
            raise ServiceError(f"job {job.id} cancelled: {job.error}", status=504)
        if state == FAILED:
            raise ServiceError(f"job {job.id} failed: {job.error}", status=500)
        raise ServiceError(
            f"job {job.id} not done yet (state: {state}); poll again or "
            "pass ?wait=SECONDS",
            status=409,
        )

    def cancel(self, job_id: str) -> dict:
        job = self._job(job_id)
        job.cancel()
        return self.describe_job(job)

    def stats(self) -> dict:
        return {
            "status": "ok",
            "api": API_VERSION,
            "streams": len(self._streams),
            "queue": self.queue.stats(),
            "backend": repr(self.engine.backend),
        }

    def close(self) -> None:
        self.queue.close()
        self.engine.close()

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The HTTP transport.
# ---------------------------------------------------------------------------

_ERROR_KINDS = {
    404: "not_found",
    409: "pending",
    413: "too_large",
    429: "admission",
    504: "cancelled",
    400: "bad_request",
    500: "internal",
}


def _int_field(payload: dict, name: str, default: int) -> int:
    """An integer request field; a 400 naming the field when it is not."""
    value = payload.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            f"{name!r} must be an integer, got {value!r}", status=400
        ) from None


class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON wire over :class:`AnalysisService` (one instance per request,
    many at once — the server is threading)."""

    server_version = "repro-serve/" + API_VERSION
    protocol_version = "HTTP/1.1"
    #: Declared body bytes a refused request left unread.
    unread_body = 0

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tell the client not to reuse the connection (an unread or
            # unbounded body left on it).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        kind = _ERROR_KINDS.get(status, "error")
        self._send_json(status, {"error": message, "kind": kind})

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: drop the connection after
            # the error instead of reading (a negative read blocks until
            # the client hangs up).
            self.close_connection = True
            raise ServiceError(f"invalid Content-Length {raw!r}", status=400)
        if length > MAX_BODY_BYTES:
            # Refuse before reading; the unread body makes the
            # connection unusable for a further request.
            self.close_connection = True
            self.unread_body = length
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        return self.rfile.read(length) if length else b""

    def _discard_unread_body(self) -> None:
        """Read and drop the rest of a refused body — at most its declared
        length, for at most :data:`DISCARD_SECONDS` — so the connection
        closes without a reset after the client has the response."""
        deadline = time.monotonic() + DISCARD_SECONDS
        left = self.unread_body
        try:
            # The response is complete: the client reads it up to EOF.
            self.connection.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.connection.settimeout(remaining)
                chunk = self.rfile.read1(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:  # timed out or reset: the socket closes anyway
            pass

    def finish(self) -> None:
        if self.unread_body:
            self._discard_unread_body()
        super().finish()

    def _read_json(self) -> dict:
        body = self._read_body()
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ServiceError(f"invalid JSON body: {exc}", status=400) from None
        if not isinstance(payload, dict):
            raise ServiceError("JSON body must be an object", status=400)
        return payload

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        query = {key: values[-1] for key, values in parse_qs(url.query).items()}
        parts = [part for part in url.path.split("/") if part]
        try:
            if not parts or parts[0] != API_VERSION:
                raise ServiceError(
                    f"unknown path {url.path!r} (API is under /{API_VERSION}/)",
                    status=404,
                )
            self._route(method, parts[1:], query)
        except AdmissionError as exc:
            self._send_error(429, str(exc))
        except JobCancelled as exc:
            self._send_error(504, str(exc))
        except ServiceError as exc:
            self._send_error(exc.status or 500, str(exc))
        except ReproError as exc:
            self._send_error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def _route(self, method: str, parts: list[str], query: dict) -> None:
        service = self.service
        route = (method, *parts[:1])
        if route == ("GET", "health"):
            self._send_json(200, service.stats())
        elif route == ("GET", "streams"):
            self._send_json(200, {"streams": service.list_streams()})
        elif route == ("POST", "streams"):
            try:
                text = self._read_body().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ServiceError(
                    f"stream body is not UTF-8 text: {exc}", status=400
                ) from None
            fingerprint = service.register_stream_text(
                text,
                columns=query.get("columns", "u v t"),
                fmt=query.get("format", "tsv"),
                directed=query.get("directed", "1") not in ("0", "false", "no"),
            )
            self._send_json(201, {"fingerprint": fingerprint})
        elif route == ("POST", "datasets"):
            payload = self._read_json()
            name = payload.get("name")
            if not name:
                raise ServiceError(
                    "missing 'name' (a catalog dataset name)", status=400
                )
            fingerprint = service.register_dataset(
                name,
                root=payload.get("root"),
                verify=bool(payload.get("verify", False)),
            )
            self._send_json(201, {"fingerprint": fingerprint, "name": name})
        elif route == ("POST", "append"):
            payload = self._read_json()
            fingerprint = payload.get("fingerprint")
            if not fingerprint:
                raise ServiceError("missing 'fingerprint'", status=400)
            events = payload.get("events")
            if not isinstance(events, list):
                raise ServiceError(
                    "missing 'events' (a list of [u, v, t] triples)",
                    status=400,
                )
            self._send_json(200, service.append_events(fingerprint, events))
        elif route in (("POST", "analyze"), ("POST", "sweep")):
            payload = self._read_json()
            fingerprint = payload.get("fingerprint")
            if not fingerprint:
                raise ServiceError("missing 'fingerprint'", status=400)
            common = {
                "measures": payload.get("measures", "occupancy"),
                "num_deltas": _int_field(payload, "num_deltas", 40),
                "timeout": payload.get("timeout"),
            }
            if parts[0] == "analyze":
                job = service.submit_analyze(
                    fingerprint,
                    method=payload.get("method", "mk"),
                    refine=_int_field(payload, "refine", 0),
                    validate=bool(payload.get("validate", False)),
                    **common,
                )
            else:
                job = service.submit_sweep(fingerprint, **common)
            self._send_json(202, service.describe_job(job))
        elif route == ("GET", "jobs") and len(parts) == 1:
            self._send_json(
                200,
                {"jobs": [service.describe_job(j) for j in service.queue.jobs()]},
            )
        elif parts[:1] == ["jobs"] and len(parts) >= 2:
            job_id = parts[1]
            if method == "GET" and len(parts) == 3 and parts[2] == "result":
                wait = float(query["wait"]) if "wait" in query else None
                self._send_json(200, service.result(job_id, wait=wait))
            elif method == "GET" and len(parts) == 2:
                self._send_json(200, service.status(job_id))
            elif method == "DELETE" and len(parts) == 2:
                self._send_json(200, service.cancel(job_id))
            else:
                raise ServiceError(f"unknown route {self.path!r}", status=404)
        elif route == ("POST", "shutdown"):
            self._send_json(200, {"status": "shutting down"})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            raise ServiceError(f"unknown route {self.path!r}", status=404)

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ServiceServer(ThreadingHTTPServer):
    """The daemon's HTTP server: threading (each request handled on its
    own thread; the heavy lifting is delegated to the shared queue and
    engine anyway), bound to one :class:`AnalysisService`."""

    daemon_threads = True

    def __init__(self, address, service: AnalysisService, *, verbose: bool = False):
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.verbose = verbose


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    service: AnalysisService | None = None,
    verbose: bool = False,
    **service_kwargs,
) -> None:
    """Run the analysis daemon until interrupted (or ``POST
    /v1/shutdown``).  ``service_kwargs`` go to :class:`AnalysisService`
    when no pre-built ``service`` is passed."""
    owns = service is None
    if service is None:
        service = AnalysisService(**service_kwargs)
    server = ServiceServer((host, port), service, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if owns:
            service.close()
