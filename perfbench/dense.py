"""Workload ``dense-process``: a dense sweep on the process backend.

``occupancy_method`` with the classical companion measure over six
log-spaced Δ from span/256 to span/16 on a time-uniform stream (400
nodes, one link per pair, 100 000 s: 79 800 events, hundreds of edges
in every window), on ``process:2``.  Each repetition builds and closes
its own engine, as the CLI does, so pool start is part of the time.
The dense batched scan path, the fused distance accumulator and the
process backend's pickling and chunking do the work; validation and the
sparse path do almost none.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from common import (
    check_golden,
    child_pids,
    load_golden,
    median,
    point_rows,
    relabel,
    reset_warm_state,
    timed,
    vm_hwm_mb,
)
from probes import MIB, bypassed_layers
from replay import layer_stats, measure_set, replay_sweep
from repro.core import occupancy_method
from repro.engine import SweepEngine, incremental_stats
from repro.generators import time_uniform_stream
from repro.utils.errors import ReproError
from tracing import NullTracer

NODES, LINKS_PER_PAIR, SPAN = 400, 1, 100_000
NUM_DELTAS = 6
WORKERS = 2
SETUP_REPEATS = 9
CHECKPOINT_STRIDE = 3


def make_stream(run, tracer):
    with tracer.span("datasets.time_uniform_stream"):
        stream = time_uniform_stream(NODES, LINKS_PER_PAIR, SPAN, seed=0)
    return relabel(stream, run.seed, 0)


def grid(stream) -> np.ndarray:
    return np.geomspace(stream.span / 256, stream.span / 16, NUM_DELTAS)


def setup(run, tracer):
    times = []
    for _ in range(SETUP_REPEATS):
        stream, seconds = timed(make_stream, run, tracer)
        times.append(seconds)
    return stream, median(times)


def analyze_process(stream, deltas):
    """One CLI-shaped analysis: build the engine, sweep, close.

    Returns ``(result, seconds, peak RSS of this process plus its pool
    workers in MiB)``; the workers' peaks are read before the pool
    closes."""
    reset_warm_state()
    start = perf_counter()
    engine = SweepEngine("process", jobs=WORKERS, cache=None)
    try:
        result = occupancy_method(stream, deltas, measures=("classical",), engine=engine)
        rss = vm_hwm_mb() + sum(_worker_hwm(pid) for pid in child_pids())
    finally:
        engine.close()
    return result, perf_counter() - start, rss


def analyze_serial(stream, deltas):
    engine = SweepEngine("serial", cache=None)
    try:
        return occupancy_method(stream, deltas, measures=("classical",), engine=engine)
    finally:
        engine.close()


def _worker_hwm(pid: int) -> float:
    try:
        return vm_hwm_mb(pid)
    except OSError:  # the worker exited between listing and reading
        return 0.0


def digest(result) -> tuple:
    return (
        repr(result.gamma),
        point_rows(result),
        [repr(point) for point in result.companions["classical"]],
    )


def run_once(run, stream, deltas, golden, first):
    try:
        result, seconds, rss = analyze_process(stream, deltas)
    except ReproError as exc:
        run.check(False, f"dense: {type(exc).__name__}: {exc}")
        return None
    check_golden(run, "dense", result, golden)
    if first is not None:
        run.check(digest(result) == first, "dense: repetitions disagree")
    return result, seconds, rss


def untraced(run, tracer):
    stream, setup_s = setup(run, tracer)
    deltas = grid(stream)
    golden = load_golden("dense")
    times, peaks, first = [], [], None
    start = perf_counter()
    while not times or perf_counter() - start < run.seconds:
        out = run_once(run, stream, deltas, golden, first)
        if out is None:
            if not times:
                break
            continue
        result, seconds, rss = out
        first = first or digest(result)
        times.append(seconds)
        peaks.append(rss)
    measured = perf_counter() - start
    run.say(
        f"repetitions: {len(times)} (process:{WORKERS}, {NUM_DELTAS} deltas, classical): "
        + ", ".join(f"{t:.3f}" for t in times) + " s"
    )
    return {
        "setup_s": setup_s,
        "analyze_s": median(times),
        "gammas_per_s": len(times) / measured,
        "peak_rss_mb": max(peaks),
    }


def traced(run, tracer):
    with tracer.span("bench.setup"):
        stream, _ = setup(run, tracer)
    deltas = grid(stream)
    golden = load_golden("dense")
    out = run_once(run, stream, deltas, golden, None)
    if out is None:
        raise RuntimeError("the untraced reference analysis failed")
    reference, process_s, _ = out
    # A serial engine sweep, checked against process:2, also warms this
    # process up (the first heavy sweep in a process runs slower while
    # its allocator grows) before the untraced replay is timed.
    reset_warm_state()
    serial = analyze_serial(stream, deltas)
    measures = measure_set("classical")
    reset_warm_state()
    _, untraced_s = timed(replay_sweep, NullTracer(), stream, deltas, measures)

    reset_warm_state()
    with tracer.span("bench.replay") as root:
        replay, saturation = replay_sweep(
            tracer, stream, deltas, measures, checkpoint_stride=CHECKPOINT_STRIDE
        )
    run.check(
        digest(saturation) == digest(reference) == digest(serial),
        f"dense: process:{WORKERS}, serial and the traced serial replay disagree",
    )
    store = incremental_stats()["nbytes"]
    metrics = bypassed_layers(run, tracer, validate=True)
    metrics.update(layer_stats(tracer, root, [replay], untraced_s))
    metrics.update(
        {
            "datasets.replica_s": tracer.total("datasets.time_uniform_stream") / SETUP_REPEATS,
            "engine.incremental_store_mb": store / MIB,
            "engine.parallel_efficiency": sum(replay.task_s) / (WORKERS * process_s),
            "reporting.render_ms": median(tracer.durations("reporting.render_analysis")) * 1e3,
        }
    )
    return metrics
