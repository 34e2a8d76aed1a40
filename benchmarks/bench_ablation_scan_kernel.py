"""Ablation — the packed-key scan paths vs the per-source row loop.

``scan_series`` keeps every scan on packed ``A * K + H`` keys and sends
each window down one of two paths: the sparse row path when every
source of the window holds exactly one hop (trips of a run of such
windows reach the collectors as one batch), the batched kernel
otherwise (see the *Scan kernels* section of
``repro.temporal.reachability``).  The per-source row loop survives
only as the int64-overflow fallback, and is the in-tree oracle here.
This bench forces each path — the batched kernel by flagging no window
sparse, the row loop by making the key-dtype helper report an overflow
— and pins two workloads:

* dense — a single dense synthetic stream: the dispatch sends every
  window to the batched kernel, which must beat the row loop by at
  least ``MIN_DENSE_SPEEDUP`` wall-clock;
* replica — the default 28-Δ sweep grid of the irvine paper replica,
  whose fine end holds about one link per window: the default dispatch
  must beat the row loop by at least ``MIN_REPLICA_SPEEDUP`` over the
  grid's 28 scans.

Timings are best-of-``ROUNDS``, interleaved, so a scheduling hiccup
cannot fake (or hide) a win, and every timed round is gated on
bit-identity: trip counts and the full collector/accumulator state of
every scan must equal the row loop's before any timing is reported.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest
from _harness import emit

from repro.core.occupancy import OccupancyCollector
from repro.core.sweep import log_delta_grid
from repro.datasets import load
from repro.generators import time_uniform_stream
from repro.graphseries import aggregate
from repro.reporting import render_table
from repro.temporal import CountingCollector, reachability, scan_series
from repro.temporal.reachability import DistanceTotals

#: Dense synthetic workload: every pair linked once, uniform in time,
#: cut into coarse windows so the per-window scan work dominates
#: aggregation.
NUM_NODES = 600
SPAN = 100_000.0
DELTA = SPAN / 64.0

#: Replica workload: the paper sweep's default grid on one replica.
REPLICA = "irvine"
NUM_DELTAS = 28

#: The acceptance claims: the batched kernel on dense windows, and the
#: default dispatch over a whole paper grid, each against the row loop.
MIN_DENSE_SPEEDUP = 3.0
MIN_REPLICA_SPEEDUP = 1.5
ROUNDS = 3


@contextmanager
def _forced(kernel):
    """Run the enclosed scans on ``kernel``: ``"auto"`` (the default
    dispatch), ``"batched"`` (no window flagged sparse) or ``"legacy"``
    (the row loop, via the overflow fallback)."""
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "batched":
            mp.setattr(
                reachability,
                "_sparse_windows",
                lambda series: np.zeros(
                    series.nonempty_steps().size, dtype=bool
                ),
            )
        elif kernel == "legacy":
            mp.setattr(reachability, "_key_dtype", lambda a_inf, K: None)
        yield


def _consumer_state(series, kernel):
    counts = CountingCollector()
    totals = DistanceTotals()
    with _forced(kernel):
        result = scan_series(series, [counts, totals])
    return (
        result.num_trips,
        counts.num_trips,
        counts.max_hops,
        counts.max_duration,
        totals.S,
        totals.C,
        totals.SH,
        totals.dist_sum,
        totals.hops_sum,
        totals.count_sum,
    )


def _occupancy_state(collector):
    return (
        collector.num_trips,
        collector._ones,
        collector._counts.tobytes(),
    )


def _timed_sweep(series_grid, kernel):
    """Scan every series of the grid as the paper sweep does (one
    occupancy collector per Δ); returns (seconds, per-Δ states)."""
    states = []
    with _forced(kernel):
        start = perf_counter()
        for series in series_grid:
            collector = OccupancyCollector()
            scan_series(series, collector)
            states.append(_occupancy_state(collector))
        elapsed = perf_counter() - start
    return elapsed, states


def _interleaved(series_grid, kernels):
    """Best-of-ROUNDS interleaved timings, gated on identical states."""
    timings = {kernel: [] for kernel in kernels}
    reference = None
    for _ in range(ROUNDS):
        for kernel in kernels:
            elapsed, states = _timed_sweep(series_grid, kernel)
            if reference is None:
                reference = states
            assert states == reference, f"{kernel} diverged from the oracle"
            timings[kernel].append(elapsed)
    return {kernel: min(times) for kernel, times in timings.items()}


def test_scan_kernel_ablation(benchmark, capsys):
    stream = time_uniform_stream(NUM_NODES, 1, SPAN, seed=3)
    series = aggregate(stream, DELTA)
    assert not reachability._sparse_windows(series).any(), (
        "the dispatch must run every window of the dense stream batched"
    )
    replica = load(REPLICA, scale="paper", seed=0)
    grid = [
        aggregate(replica, float(delta))
        for delta in log_delta_grid(replica, num=NUM_DELTAS)
    ]
    sparse_share = float(
        np.mean(np.concatenate([reachability._sparse_windows(s) for s in grid]))
    )

    def compare():
        # Full consumer state first: the oracle check gates the timings.
        states = {
            k: _consumer_state(series, k) for k in ("auto", "batched", "legacy")
        }
        for kernel in ("auto", "batched"):
            assert states[kernel] == states["legacy"], (
                f"{kernel} diverged from the row-loop oracle: "
                f"{states[kernel]} != {states['legacy']}"
            )
        for replica_series in grid[:: NUM_DELTAS // 7]:
            assert _consumer_state(replica_series, "auto") == _consumer_state(
                replica_series, "legacy"
            )

        dense = _interleaved([series], ("legacy", "batched"))
        sweep = _interleaved(grid, ("legacy", "auto"))
        rows = [
            ["dense", "legacy", dense["legacy"]],
            ["dense", "batched", dense["batched"]],
            ["dense", "speedup", dense["legacy"] / dense["batched"]],
            [REPLICA, "legacy", sweep["legacy"]],
            [REPLICA, "auto", sweep["auto"]],
            [REPLICA, "speedup", sweep["legacy"] / sweep["auto"]],
        ]
        return rows, dense, sweep

    rows, dense, sweep = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = render_table(
        ["workload", "path", "wall_seconds"],
        rows,
        title=(
            f"Ablation — scan paths (dense: n={NUM_NODES}, "
            f"{series.num_steps} windows, {stream.num_events} events; "
            f"{REPLICA}: {len(grid)} scans, "
            f"{sparse_share:.0%} of windows sparse)"
        ),
    )
    dense_speedup = dense["legacy"] / dense["batched"]
    replica_speedup = sweep["legacy"] / sweep["auto"]
    emit(
        capsys,
        "ablation_scan_kernel",
        table,
        data={
            "num_nodes": NUM_NODES,
            "num_events": stream.num_events,
            "num_windows": series.num_steps,
            "delta": DELTA,
            "legacy_seconds": float(dense["legacy"]),
            "batched_seconds": float(dense["batched"]),
            "speedup": float(dense_speedup),
            "replica": REPLICA,
            "replica_scans": len(grid),
            "replica_sparse_share": sparse_share,
            "replica_legacy_seconds": float(sweep["legacy"]),
            "replica_auto_seconds": float(sweep["auto"]),
            "replica_speedup": float(replica_speedup),
        },
    )
    assert dense_speedup >= MIN_DENSE_SPEEDUP, (
        f"batched kernel only {dense_speedup:.2f}x faster than the row "
        f"loop ({dense['batched']:.3f}s vs {dense['legacy']:.3f}s); "
        f"need >= {MIN_DENSE_SPEEDUP}x"
    )
    assert replica_speedup >= MIN_REPLICA_SPEEDUP, (
        f"default dispatch only {replica_speedup:.2f}x faster than the row "
        f"loop on the {REPLICA} sweep ({sweep['auto']:.3f}s vs "
        f"{sweep['legacy']:.3f}s); need >= {MIN_REPLICA_SPEEDUP}x"
    )
