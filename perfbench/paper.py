"""Workload ``paper-cold``: the paper's own analysis, cold and serial.

``analyze_stream`` (validation on, occupancy, 28-Δ log grid from the
stream resolution to its span) on the four paper-scale replicas, one
after the other, on the serial backend without a result cache.  Warm
state is reset before every replica analysis (aggregation memo and
incremental store), so each repetition measures the same cold program.
Most windows of the fine Δ hold one to four edges: the sparse-window
scan does most of the work and validation most of the rest.
"""

from __future__ import annotations

from time import perf_counter

from common import (
    check_golden,
    load_golden,
    median,
    relabel,
    reset_warm_state,
    timed,
    vm_hwm_mb,
)
from probes import MIB, bypassed_layers
from replay import layer_stats, render_probe, replay_analysis
from repro.core import analyze_stream
from repro.datasets import dataset_spec, load
from repro.engine import SweepEngine, incremental_stats
from repro.utils.errors import ReproError
from repro.utils.timeunits import HOUR
from tracing import NullTracer

REPLICAS = ("irvine", "facebook", "enron", "manufacturing")
#: The replica a traced run also analyzes untraced (the smallest).
REFERENCE = "facebook"
NUM_DELTAS = 28
SETUP_REPEATS = 7
#: The traced run's checkpoint probe scans every fourth Δ of each grid.
CHECKPOINT_STRIDE = 4


def make_streams(run, tracer):
    streams = {}
    for salt, name in enumerate(REPLICAS):
        with tracer.span("datasets.load"):
            replica = load(name, scale="paper", seed=0)
        streams[name] = relabel(replica, run.seed, salt)
    return streams


def analyze_cold(stream):
    reset_warm_state()
    engine = SweepEngine("serial", cache=None)
    try:
        return timed(analyze_stream, stream, num_deltas=NUM_DELTAS, engine=engine)
    finally:
        engine.close()


def setup(run, tracer):
    times = []
    for _ in range(SETUP_REPEATS):
        streams, seconds = timed(make_streams, run, tracer)
        times.append(seconds)
    return streams, median(times)


def analyze_all(run, streams, golden):
    """One repetition: every replica, gated on the golden tables.
    Returns ``{name: (report, seconds)}`` for the analyses that ran."""
    out = {}
    for name in REPLICAS:
        try:
            report, seconds = analyze_cold(streams[name])
        except ReproError as exc:
            run.check(False, f"{name}: {type(exc).__name__}: {exc}")
            continue
        check_golden(run, name, report.saturation, golden["replicas"][name])
        out[name] = (report, seconds)
    return out


def untraced(run, tracer):
    streams, setup_s = setup(run, tracer)
    golden = load_golden("paper")
    reps = []
    start = perf_counter()
    while not reps or perf_counter() - start < run.seconds:
        reps.append(analyze_all(run, streams, golden))
    measured = perf_counter() - start
    per_replica = {
        name: median([rep[name][1] for rep in reps if name in rep]) for name in REPLICAS
    }
    sums = [sum(seconds for _, seconds in rep.values()) for rep in reps]
    analyses = sum(len(rep) for rep in reps)

    run.say(f"repetitions: {len(reps)} (each: {len(REPLICAS)} replicas, cold, serial)")
    for name in REPLICAS:
        run.say(f"analyze_s.{name}: {per_replica[name]:.4f} s (median of {len(reps)})")
    last = reps[-1]
    fidelity = ", ".join(
        f"{name} {last[name][0].gamma / HOUR:.1f} h (paper {dataset_spec(name).gamma_paper_hours:g} h)"
        for name in REPLICAS
        if name in last
    )
    run.say(f"Table 1 fidelity (known, not gated): {fidelity}")
    return {
        "setup_s": setup_s,
        "analyze_s": median(sums),
        "gammas_per_s": analyses / measured,
        "peak_rss_mb": vm_hwm_mb(),
    }


def traced(run, tracer):
    with tracer.span("bench.setup"):
        streams, _ = setup(run, tracer)
    golden = load_golden("paper")["replicas"]

    # One untraced reference keeps the traced run short: the smallest
    # replica.  Every replay is gated on the golden tables, which are
    # the untraced outputs every untraced run is checked against.  The
    # first heavy analysis in a process runs slower (its allocator is
    # still growing), so the reference is analyzed twice and the second
    # one timed.
    for _ in range(2):
        reference, analysis_s = analyze_cold(streams[REFERENCE])
        check_golden(run, REFERENCE, reference.saturation, golden[REFERENCE])
    store = incremental_stats()["nbytes"]
    reset_warm_state()
    _, untraced_s = timed(
        replay_analysis, NullTracer(), streams[REFERENCE],
        num_deltas=NUM_DELTAS, validate=True, render=False,
    )

    replays, reports, spans = {}, {}, {}
    with tracer.span("bench.replay") as root:
        for name in REPLICAS:
            reset_warm_state()
            with tracer.span("bench.replica") as spans[name]:
                reports[name], replays[name], _ = replay_analysis(
                    tracer, streams[name], num_deltas=NUM_DELTAS, validate=True,
                    render=False, checkpoint_stride=CHECKPOINT_STRIDE,
                )
    for name in REPLICAS:
        check_golden(run, f"{name} (traced replay)", reports[name].saturation, golden[name])
    replayed = reports[REFERENCE]
    run.check(
        render_probe(tracer, reference) == render_probe(tracer, replayed),
        f"{REFERENCE}: the traced replay renders differently from the untraced report",
    )

    metrics = bypassed_layers(run, tracer, validate=False)
    metrics.update(
        layer_stats(tracer, root, list(replays.values()), untraced_s, spans[REFERENCE])
    )
    metrics.update(
        {
            "datasets.replica_s": tracer.total("datasets.load") / SETUP_REPEATS,
            "engine.incremental_store_mb": store / MIB,
            "engine.parallel_efficiency": sum(replays[REFERENCE].task_s) / analysis_s,
            "reporting.render_ms": median(tracer.durations("reporting.render_analysis")) * 1e3,
        }
    )
    return metrics
