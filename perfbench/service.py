"""Workload ``service-session``: daemon sessions over HTTP.

A ``python -m repro serve --jobs 2`` daemon runs as its own process; a
closed loop of two clients in this process drives it, each client
starting its next session when its last one ends.  A session brings in
a fresh seeded replica-shaped stream (upload or catalog, alternating),
analyzes it cold, again warm, then appends the held-back suffix and
analyzes the grown stream (see :mod:`sessions`).  Writes (upload,
register, append) run beside reads (warm hits) through HTTP, the job
queue, the sweep cache and the incremental scan store.
"""

from __future__ import annotations

import math

from common import median, percentile, point_rows, reset_warm_state, timed, vm_hwm_mb
from probes import DAEMON_JOBS, append_speedup, offline_analysis, session_batch, validation_probe
from replay import layer_stats, replay_analysis
from repro.reporting import render_analysis
from repro.service import ServiceClient
from sessions import SESSION_DELTAS, Daemon, closed_loop, make_inputs
from tracing import NullTracer

CLIENTS = 2
#: Sessions prepared per set-up; the loop also ends when they run out.
POOL = 24
SETUP_REPEATS = 3
#: Sessions in the traced run's in-process batch.
TRACED_SESSIONS = 4
#: Untraced replays of one (sub-second) session analysis whose median
#: is the tracing-overhead reference.
UNTRACED_REPLAYS = 3


def setup_once(run, attempt: int):
    catalog = run.dir(f"setup-{attempt}", "catalog")
    inputs = make_inputs(
        run.seed, POOL, run.dir(f"setup-{attempt}", "bodies"), catalog,
        f"s{attempt}", NullTracer(),
    )
    return inputs, catalog, Daemon(run.root, run.work, DAEMON_JOBS)


def untraced(run, tracer):
    times, daemon = [], None
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            (inputs, catalog, daemon), seconds = timed(setup_once, run, attempt)
            times.append(seconds)
        # One session per client first, untimed: the daemon's first
        # analyses run slower while its allocator grows, which a
        # long-lived daemon's users do not see.
        warm_up, _ = closed_loop(
            daemon.url, inputs[:CLIENTS], catalog, clients=CLIENTS,
            seconds=math.inf, tracer=NullTracer(),
        )
        records, wall = closed_loop(
            daemon.url, inputs[CLIENTS:], catalog, clients=CLIENTS,
            seconds=run.seconds, tracer=NullTracer(),
        )
        client = ServiceClient(daemon.url)
        health, jobs = client.health(), client.jobs()
        peak = vm_hwm_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    for record in warm_up + records:
        for ok, what in record.checks:
            run.check(ok, what)
    complete = [r for r in records if r.complete]
    if not complete:
        raise RuntimeError("no session completed")
    # The grown-stream response of one measured session, an upload or a
    # catalog one by the seed's parity, must equal the offline analysis.
    sample = next((r for r in complete if r.index % 2 == run.seed % 2), complete[0])
    offline = render_analysis(offline_analysis(inputs[sample.index].grown))
    run.check(
        sample.appended["text"] == offline,
        f"session {sample.index}: grown-stream response differs from offline analyze",
    )

    cold = [r.cold_s for r in records if r.cold_s is not None]
    warm = [r.warm_s for r in records if r.warm_s is not None]
    append = [r.append_s for r in complete]
    for label, sample_s in (("cold_ms", cold), ("warm_ms", warm), ("append_ms", append)):
        run.say(
            f"{label}.p50: {percentile(sample_s, 50) * 1e3:.3f} ms, "
            f"{label}.p90: {percentile(sample_s, 90) * 1e3:.3f} ms (n={len(sample_s)})"
        )
    run.say(f"sessions_per_s: {len(complete) / wall:.4f} 1/s ({len(complete)} sessions, {CLIENTS} clients)")
    run.say(f"daemon at end: {health['streams']} streams, {len(jobs)} jobs held")
    analyses = len(cold) + len(warm) + len(append)
    return {
        "setup_s": median(times),
        # Analyses the cache cannot answer: cold ones and the grown
        # stream's (an append resumes little, see engine.resume_share).
        "analyze_s": median(cold + append),
        "gammas_per_s": analyses / wall,
        "peak_rss_mb": peak,
    }


def traced(run, tracer):
    inputs, records, metrics = session_batch(
        run, tracer, sessions=TRACED_SESSIONS, clients=CLIENTS, salt=0
    )
    served = records[0]
    if served.cold is None:
        raise RuntimeError("the sampled session did not complete its cold analysis")
    item = inputs[0]

    reset_warm_state()
    report = offline_analysis(item.prefix)
    untraced_text = render_analysis(report)
    run.check(untraced_text == served.cold["text"], "served cold response differs from offline")
    untraced = []
    for _ in range(UNTRACED_REPLAYS):
        reset_warm_state()
        untraced.append(
            timed(
                replay_analysis, NullTracer(), item.prefix,
                num_deltas=SESSION_DELTAS, validate=False, render=True,
            )[1]
        )
    untraced_s = median(untraced)

    reset_warm_state()
    with tracer.span("bench.replay") as root:
        replayed, replay, text = replay_analysis(
            tracer, item.prefix, num_deltas=SESSION_DELTAS, validate=False,
            render=True, checkpoint_stride=1,
        )
    run.check(
        text == untraced_text and point_rows(replayed.saturation) == point_rows(report.saturation),
        "traced replay differs from the untraced analysis",
    )

    metrics["engine.append_speedup"] = append_speedup(run, tracer, inputs[1])
    validation_probe(tracer, item, served.cold["gamma"])
    metrics.update(layer_stats(tracer, root, [replay], untraced_s))
    metrics.update(
        {
            "engine.parallel_efficiency": sum(replay.task_s) / (DAEMON_JOBS * served.cold_s),
            "reporting.render_ms": median(tracer.durations("reporting.render_analysis")) * 1e3,
        }
    )
    return metrics
