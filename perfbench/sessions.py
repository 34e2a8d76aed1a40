"""Service sessions: inputs, the closed-loop client, and the daemons.

A session brings in a fresh stream, analyzes it cold, analyzes it again
(warm: served from the sweep cache), then appends the held-back suffix
and analyzes the grown stream.  Sessions alternate between two ways of
bringing a stream in:

* ``upload`` — ``POST /v1/streams`` with a TSV body.  The daemon parses
  it into a *labeled* stream (labels are the TSV's node strings), so
  the suffix is translated with ``index_of`` on a local ``read_tsv`` of
  the same body and keeps only events among nodes the prefix already
  has: appending an unknown node to a labeled stream is a 400.
* ``catalog`` — ``POST /v1/datasets`` naming a dataset ingested into a
  partitioned catalog during set-up.  Catalog streams are unlabeled, so
  the raw suffix appends as-is.

Every session checks its own outputs: the fingerprints the daemon
returns equal the locally built streams', and the warm response equals
the cold one byte for byte.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, sleep

from common import relabel
from repro.core import log_delta_grid
from repro.datasets import ingest_stream
from repro.generators import ReplicaParameters, circadian_replica
from repro.linkstream import LinkStream, read_tsv, write_tsv
from repro.service import AnalysisService, ServiceClient
from repro.service.daemon import ServiceServer
from repro.utils.errors import ReproError
from repro.utils.timeunits import DAY

#: Replica-shaped session streams: 100 nodes over 8 days.
SESSION_NODES = 100
SESSION_EVENTS = 600
SESSION_SPAN = 8 * DAY
#: Share of each session stream held back and appended later.
HELD_BACK = 0.10
#: Δ-grid size of every session analysis.
SESSION_DELTAS = 16
#: Client-side long-poll and socket timeouts (seconds).
FETCH_WAIT = 120.0
CLIENT_TIMEOUT = 150.0


@dataclass
class SessionInput:
    index: int
    kind: str  # "upload" or "catalog"
    prefix: LinkStream  # the stream as the daemon will hold it
    grown: LinkStream  # prefix plus the appended suffix, built locally
    suffix: list  # [u, v, t] triples as sent to /v1/append
    body: bytes | None = None
    dataset: str | None = None


def session_stream(seed: int, index: int) -> LinkStream:
    """Session ``index``'s stream: a replica drawn for the index, its
    nodes renamed by a permutation drawn from ``(seed, index)``.  Every
    seed gives fresh streams (new fingerprints, nothing cached) whose
    sizes and timing structure stay the same from seed to seed."""
    params = ReplicaParameters(
        num_nodes=SESSION_NODES, num_events=SESSION_EVENTS, span=SESSION_SPAN
    )
    return relabel(circadian_replica(params, seed=index), seed, index)


def _cut(stream: LinkStream) -> int:
    """First held-back event: about ``HELD_BACK`` from the end, never
    splitting a run of equal timestamps (appends must be strictly later)."""
    t = stream.timestamps
    cut = int(len(t) * (1.0 - HELD_BACK))
    while 0 < cut < len(t) and t[cut] == t[cut - 1]:
        cut += 1
    return cut


def make_inputs(
    seed: int, count: int, work: str, catalog: str, run_id: str, tracer
) -> list[SessionInput]:
    """``count`` sessions' inputs; odd sessions use the catalog."""
    inputs = []
    for index in range(count):
        with tracer.span("datasets.replica"):
            full = session_stream(seed, index)
        cut = _cut(full)
        u, v, t = full.sources, full.targets, full.timestamps
        prefix = LinkStream(
            u[:cut], v[:cut], t[:cut], directed=full.directed, num_nodes=full.num_nodes
        )
        raw = [[int(a), int(b), int(c)] for a, b, c in zip(u[cut:], v[cut:], t[cut:])]
        if index % 2:
            name = f"{run_id}-{index}"
            with tracer.span("storage.ingest"):
                ingest_stream(prefix, name, root=catalog)
            inputs.append(
                SessionInput(
                    index, "catalog", prefix, prefix.extend([tuple(e) for e in raw]),
                    raw, dataset=name,
                )
            )
            continue
        path = os.path.join(work, f"{run_id}-{index}.tsv")
        write_tsv(prefix, path)
        with open(path, "rb") as handle:
            body = handle.read()
        local = read_tsv(path)
        known = set(local.labels)
        suffix = [
            [local.index_of(str(a)), local.index_of(str(b)), float(c)]
            for a, b, c in raw
            if str(a) in known and str(b) in known
        ]
        inputs.append(
            SessionInput(
                index, "upload", local, local.extend([tuple(e) for e in suffix]),
                suffix, body=body,
            )
        )
    return inputs


@dataclass
class SessionRecord:
    index: int
    kind: str
    checks: list = field(default_factory=list)  # (ok, what)
    cold_s: float | None = None
    warm_s: float | None = None
    append_s: float | None = None
    cold: dict | None = None
    appended: dict | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.checks.append((bool(ok), f"session {self.index} ({self.kind}): {what}"))
        return ok

    @property
    def complete(self) -> bool:
        return self.append_s is not None


def _analyze(client: ServiceClient, tracer, fingerprint: str) -> dict:
    with tracer.span("service.submit"):
        job = client.analyze(fingerprint, num_deltas=SESSION_DELTAS)
    with tracer.span("service.fetch_wait"):
        return client.fetch(job["job_id"], wait=FETCH_WAIT)


def run_session(client: ServiceClient, item: SessionInput, catalog: str, tracer) -> SessionRecord:
    record = SessionRecord(item.index, item.kind)
    try:
        with tracer.span("service.health"):
            client.health()
        if item.kind == "upload":
            with tracer.span("linkstream.upload"):
                fingerprint = client.upload_stream_bytes(item.body)
        else:
            with tracer.span("storage.register"):
                fingerprint = client.register_dataset(item.dataset, root=catalog)
        if not record.check(
            fingerprint == item.prefix.fingerprint(), "registered fingerprint mismatch"
        ):
            return record

        start = perf_counter()
        cold = _analyze(client, tracer, fingerprint)
        record.cold_s = perf_counter() - start
        record.cold = cold
        record.check(True, "cold analysis")

        start = perf_counter()
        warm = _analyze(client, tracer, fingerprint)
        record.warm_s = perf_counter() - start
        record.check(warm["text"] == cold["text"], "warm response differs from cold")

        start = perf_counter()
        with tracer.span("service.append_post"):
            grown = client.append(fingerprint, item.suffix)
        record.check(
            grown["fingerprint"] == item.grown.fingerprint(), "grown fingerprint mismatch"
        )
        record.appended = _analyze(client, tracer, grown["fingerprint"])
        record.append_s = perf_counter() - start
        record.check(True, "append analysis")
    except (ReproError, OSError) as exc:
        record.check(False, f"{type(exc).__name__}: {exc}")
    return record


def closed_loop(
    base_url: str, inputs, catalog: str, *, clients: int, seconds: float, tracer,
    root_id: int | None = None,
):
    """``clients`` threads, each starting its next session only after its
    previous one finished, until ``seconds`` have passed or the inputs
    run out.  Client spans parent to ``root_id``.  Returns ``(records in
    session order, loop wall seconds)``."""
    pending = iter(inputs)
    lock = threading.Lock()
    records: list[SessionRecord] = []
    start = perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        tracer.thread_root(root_id)
        client = ServiceClient(base_url, timeout=CLIENT_TIMEOUT)
        while perf_counter() < deadline:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            try:
                record = run_session(client, item, catalog, tracer)
            except Exception:  # a failed session must not end the loop unseen
                record = SessionRecord(item.index, item.kind)
                record.check(False, traceback.format_exc())
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=4 * CLIENT_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("session client did not finish")
    wall = perf_counter() - start
    return sorted(records, key=lambda r: r.index), wall


def resume_share(inputs) -> float:
    """Share of the grown streams' Δ that the parent's sweep also ran.

    The incremental store keys scan records by exact Δ, so only those Δ
    can resume from the parent's checkpoints after an append; the grid
    follows the grown span, which usually leaves only the smallest Δ.
    """
    shared = total = 0
    for item in inputs:
        parent = {repr(float(d)) for d in log_delta_grid(item.prefix, num=SESSION_DELTAS)}
        grown = [repr(float(d)) for d in log_delta_grid(item.grown, num=SESSION_DELTAS)]
        shared += sum(d in parent for d in grown)
        total += len(grown)
    return shared / total


# -- daemons ---------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """``python -m repro serve --jobs <jobs>`` as a child process."""

    def __init__(self, root: str, work: str, jobs: int) -> None:
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = os.path.join(work, "tmp")
        self._log = open(os.path.join(work, f"daemon-{self.port}.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(jobs), "--port", str(self.port)],
            cwd=root,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, limit: float = 60.0) -> None:
        client = ServiceClient(self.url, timeout=5.0)
        deadline = perf_counter() + limit
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.proc.returncode}")
            try:
                client.health()
                return
            except ReproError:
                if perf_counter() > deadline:
                    raise
                sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                ServiceClient(self.url, timeout=5.0).shutdown()
                self.proc.wait(timeout=20)
            except (ReproError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


@contextmanager
def in_process_service(jobs: int):
    """An ``AnalysisService`` with the daemon's defaults behind a local
    HTTP server thread, so its public stats stay readable."""
    service = AnalysisService(jobs=jobs)
    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        service.close()
