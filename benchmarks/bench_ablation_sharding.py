"""Ablation — within-Δ sharding of one huge occupancy evaluation.

Grid parallelism is useless on the coarse-Δ tail of a sweep: one Δ, one
task, one worker, everyone else idle.  The engine's shard path splits
that single evaluation into destination-partition scans (the arrival
matrix's columns are independent dynamic programs) and merges the
occupancy histograms integer-exactly.  This bench pins both claims on a
single coarse Δ of a wide synthetic stream:

* wall time — unsharded (one worker) vs sharded across the pool, each
  timed on *cold* evaluations: every round gets a fresh pool forked
  from a parent whose incremental store and aggregation memo were just
  cleared, so no worker can resume the timed scan from a record of an
  earlier one;
* bit-identity — the merged sweep point must equal the serial
  reference exactly, scores, trip counts, and distribution alike.

The speedup assertion only applies when the machine actually has >= 2
workers; the bit-identity assertions always apply.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
from _harness import emit

from repro.engine import SweepEngine, plan_occupancy_sweep
from repro.engine.incremental import clear_incremental_store
from repro.graphseries.aggregation import clear_aggregate_cache
from repro.linkstream import LinkStream
from repro.reporting import render_table

JOBS = min(4, os.cpu_count() or 1)
ROUNDS = 2

#: One coarse Δ — span/4, i.e. the expensive tail of a sweep where the
#: whole plan is a single task.
SPAN = 100_000.0
COARSE_DELTA = SPAN / 4.0

#: A wide stream: the scan's work grows with events × nodes, while each
#: shard's fixed costs (aggregation, shipping the stream) grow with the
#: events alone, so many nodes over few events make the scan dominate.
NUM_NODES = 2000
NUM_EVENTS = 100_000


def _wide_stream() -> LinkStream:
    rng = np.random.default_rng(3)
    u = rng.integers(0, NUM_NODES, NUM_EVENTS)
    v = rng.integers(0, NUM_NODES, NUM_EVENTS)
    keep = u != v
    t = np.sort(rng.integers(0, int(SPAN), int(keep.sum())))
    return LinkStream(u[keep], v[keep], t, directed=False, num_nodes=NUM_NODES)


def _cold_round(stream, backend, shards, tasks, warmup):
    """One timed evaluation on a fresh pool with nothing to resume."""
    # Pool workers fork from this process: drop the records of earlier
    # rounds (and of the serial reference) first.
    clear_incremental_store()
    clear_aggregate_cache()
    with SweepEngine(backend, cache=None, shards=shards) as engine:
        engine.run(stream, warmup)  # spawn + import the pool workers
        start = perf_counter()
        point = engine.run(stream, tasks)[0]["occupancy"]
        return point, perf_counter() - start


def _assert_identical(point, reference):
    assert point.scores == reference.scores
    assert point.num_trips == reference.num_trips
    assert point.num_windows == reference.num_windows
    assert point.num_nonempty_windows == reference.num_nonempty_windows
    assert point.distribution.values.tolist() == reference.distribution.values.tolist()
    assert point.distribution.weights.tolist() == reference.distribution.weights.tolist()


def test_sharding_ablation(benchmark, capsys):
    stream = _wide_stream()
    tasks = plan_occupancy_sweep([COARSE_DELTA], methods=("mk",))
    warmup = plan_occupancy_sweep([SPAN / 2.0, SPAN], methods=("mk",))

    def compare():
        rows = []
        with SweepEngine(cache=None) as serial_engine:
            start = perf_counter()
            reference = serial_engine.run(stream, tasks)[0]["occupancy"]
            serial_time = perf_counter() - start
        rows.append(["serial (reference)", 1, serial_time])

        # At least 2 shards even on a single-core machine, so the shard
        # path itself (restricted scans + histogram merge) always runs.
        shard_count = max(2, JOBS)
        configs = (("unsharded", 1), ("sharded", shard_count))
        elapsed = {label: [] for label, _ in configs}
        # Best of ROUNDS interleaved rounds, so a scheduling hiccup on a
        # busy CI runner cannot fake (or hide) the sharding speedup.
        for _ in range(ROUNDS):
            for label, shards in configs:
                point, seconds = _cold_round(
                    stream, f"process:{JOBS}", shards, tasks, warmup
                )
                _assert_identical(point, reference)
                elapsed[label].append(seconds)
        timings = {label: min(times) for label, times in elapsed.items()}
        for label, shards in configs:
            rows.append([f"process:{JOBS} {label}", shards, timings[label]])

        with SweepEngine(f"thread:{JOBS}", cache=None, shards=shard_count) as engine:
            point = engine.run(stream, tasks)[0]["occupancy"]
        _assert_identical(point, reference)

        return rows, timings

    rows, timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = render_table(
        ["configuration", "shards", "wall_seconds"],
        rows,
        title=(
            f"Ablation — within-delta sharding (1 coarse delta, "
            f"{stream.num_events} events, jobs={JOBS})"
        ),
    )
    emit(
        capsys,
        "ablation_sharding",
        table,
        data={
            "jobs": JOBS,
            "num_events": stream.num_events,
            "coarse_delta": COARSE_DELTA,
            "unsharded_seconds": float(timings["unsharded"]),
            "sharded_seconds": float(timings["sharded"]),
            "speedup": float(timings["unsharded"] / timings["sharded"]),
        },
    )

    # The acceptance claim: on >= 2 workers the sharded evaluation of a
    # single coarse Δ beats the unsharded one wall-clock.
    if JOBS >= 2:
        assert timings["sharded"] < timings["unsharded"], (
            f"sharded {timings['sharded']:.3f}s not faster than "
            f"unsharded {timings['unsharded']:.3f}s on {JOBS} workers"
        )
