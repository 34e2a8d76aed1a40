"""Traced measurements shared by the workloads.

Every traced run reports every per-layer metric.  The layers a
workload's own pipeline exercises are measured on its replay; the ones
it bypasses (the service for the offline workloads, validation for the
dense sweep) are measured by these probes on small session streams, so
each metric is a real measurement of that layer on every workload.
The README says which end-to-end metric each one explains, and where.
"""

from __future__ import annotations

import math

from common import median, point_rows, reset_warm_state, timed
from replay import render_probe, replay_validation
from repro.core import analyze_stream
from repro.engine import SweepEngine, incremental_stats
from repro.service import ServiceClient
from sessions import (
    SESSION_DELTAS,
    closed_loop,
    in_process_service,
    make_inputs,
    resume_share,
)

MIB = 1024.0 * 1024.0
#: Backend workers of the in-process service, as the daemon is run.
DAEMON_JOBS = 2


def offline_analysis(stream):
    """``analyze_stream`` as the service runs it, on a private serial
    engine without a result cache."""
    engine = SweepEngine("serial", cache=None)
    try:
        return analyze_stream(
            stream, validate=False, num_deltas=SESSION_DELTAS, engine=engine
        )
    finally:
        engine.close()


def session_batch(run, tracer, *, sessions: int, clients: int, salt: int):
    """One batch of sessions against an in-process service.

    Returns ``(inputs, records, layer metrics)``; the metrics cover the
    service, storage and upload layers plus the engine's cache and
    store as the service left them.
    """
    catalog = run.dir(f"batch-{salt}", "catalog")
    with tracer.span("bench.sessions") as root:
        inputs = make_inputs(
            run.seed + salt, sessions, run.dir(f"batch-{salt}", "bodies"),
            catalog, f"b{salt}", tracer,
        )
        with in_process_service(DAEMON_JOBS) as (service, url):
            records, _ = closed_loop(
                url, inputs, catalog, clients=clients, seconds=math.inf,
                tracer=tracer, root_id=root.id,
            )
            client = ServiceClient(url)
            health = client.health()
            jobs = client.jobs()
            cache = service.engine.cache.stats()
            store = incremental_stats()["nbytes"]
    for record in records:
        for ok, what in record.checks:
            run.check(ok, what)

    def p50_ms(name: str) -> float:
        return median(tracer.durations(name)) * 1e3

    lookups = cache["hits"] + cache["misses"]
    metrics = {
        "datasets.replica_s": median(tracer.durations("datasets.replica")),
        "storage.ingest_s": tracer.total("storage.ingest"),
        "storage.register_ms.p50": p50_ms("storage.register"),
        "linkstream.upload_ms.p50": p50_ms("linkstream.upload"),
        "service.health_ms.p50": p50_ms("service.health"),
        "service.submit_ms.p50": p50_ms("service.submit"),
        "service.fetch_wait_ms.p50": p50_ms("service.fetch_wait"),
        "service.append_post_ms.p50": p50_ms("service.append_post"),
        "service.streams_held": health["streams"],
        "service.jobs_held": len(jobs),
        "engine.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "engine.resume_share": resume_share(inputs),
        "engine.incremental_store_mb": store / MIB,
    }
    return inputs, records, metrics


def append_speedup(run, tracer, item) -> float:
    """From-scratch over append analysis time of a grown stream.

    The prefix is analyzed first, so the grown stream's analysis resumes
    from its checkpoints; the from-scratch analysis starts from cleared
    state.  Both must give the same sweep.
    """
    reset_warm_state()
    with tracer.span("bench.append_speedup"):
        offline_analysis(item.prefix)
        appended, append_s = timed(offline_analysis, item.grown)
        reset_warm_state()
        scratch, scratch_s = timed(offline_analysis, item.grown)
    run.check(
        point_rows(appended.saturation) == point_rows(scratch.saturation),
        "append analysis differs from the from-scratch analysis",
    )
    render_probe(tracer, scratch)
    return scratch_s / append_s


def validation_probe(tracer, item, gamma: float) -> None:
    """Section 8 validation of a session stream at its served γ."""
    with tracer.span("bench.validation"):
        replay_validation(tracer, item.prefix, gamma)


def bypassed_layers(run, tracer, *, validate: bool) -> dict:
    """The probe an offline workload runs for the layers it bypasses:
    a two-session batch (one upload, one catalog), the append speed-up
    on the first session, and (``validate``) its validation."""
    inputs, records, metrics = session_batch(run, tracer, sessions=2, clients=1, salt=1)
    metrics["engine.append_speedup"] = append_speedup(run, tracer, inputs[0])
    if validate and records and records[0].cold is not None:
        validation_probe(tracer, inputs[0], records[0].cold["gamma"])
    return metrics
