"""Ablation — batched vs legacy backward-scan kernel.

The legacy scan walks one Python iteration per source row per window;
the batched kernel packs each ``(arrival, hop)`` cell into one int64
lexicographic key and applies a whole window with a handful of
vectorized passes, and ``scan_series`` picks one from window density
(see the *Scan kernels* section of ``repro.temporal.reachability``).
This bench forces each kernel by moving the density threshold and pins
three claims on a single dense synthetic stream:

* choice — the density choice runs this stream on the batched kernel;
* wall time — the batched kernel must beat the legacy loop by at least
  ``MIN_SPEEDUP`` on a dense stream (n >= 500), best-of-``ROUNDS``
  interleaved so a scheduling hiccup cannot fake (or hide) the win;
* bit-identity — trip counts on every timed round, and the full
  collector/accumulator state (counts, extrema, distance totals) on a
  dedicated pass per kernel.  The legacy kernel is the in-tree oracle:
  any divergence fails the bench before any timing is reported.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter

import pytest
from _harness import emit

from repro.generators import time_uniform_stream
from repro.graphseries import aggregate
from repro.reporting import render_table
from repro.temporal import CountingCollector, reachability, scan_series
from repro.temporal.reachability import DistanceTotals

#: Dense synthetic workload: every pair linked once, uniform in time —
#: the same stream the sharding ablation uses — cut into coarse windows
#: so the per-window scan work dominates aggregation.
NUM_NODES = 600
SPAN = 100_000.0
DELTA = SPAN / 64.0

#: The acceptance claim of the kernel rewrite.
MIN_SPEEDUP = 3.0
ROUNDS = 3


@contextmanager
def _forced(kernel):
    """Run the enclosed scans on ``kernel``: a zero density threshold
    forces the batched kernel, an infinite one the legacy loop."""
    threshold = 0.0 if kernel == "batched" else math.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reachability, "BATCHED_MIN_HOPS_PER_WINDOW", threshold)
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


def test_scan_kernel_ablation(benchmark, capsys):
    stream = time_uniform_stream(NUM_NODES, 1, SPAN, seed=3)
    series = aggregate(stream, DELTA)
    assert reachability._batched_pays(series), (
        "the density choice must run the dense ablation stream batched"
    )

    def compare():
        # Full consumer state first: the oracle check gates the timings.
        states = {k: _consumer_state(series, k) for k in ("batched", "legacy")}
        assert states["batched"] == states["legacy"], (
            "batched kernel diverged from the legacy oracle: "
            f"{states['batched']} != {states['legacy']}"
        )

        timings = {"batched": [], "legacy": []}
        trips = {}
        for _ in range(ROUNDS):
            for kernel in ("batched", "legacy"):
                with _forced(kernel):
                    start = perf_counter()
                    result = scan_series(series, [])
                    timings[kernel].append(perf_counter() - start)
                trips[kernel] = result.num_trips
        assert trips["batched"] == trips["legacy"]
        best = {kernel: min(elapsed) for kernel, elapsed in timings.items()}
        rows = [
            [kernel, best[kernel], trips[kernel]]
            for kernel in ("legacy", "batched")
        ]
        rows.append(["speedup", best["legacy"] / best["batched"], ""])
        return rows, best

    rows, best = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = render_table(
        ["kernel", "wall_seconds", "trips"],
        rows,
        title=(
            f"Ablation — scan kernel (n={NUM_NODES}, "
            f"{series.num_steps} windows, {stream.num_events} events)"
        ),
    )
    speedup = best["legacy"] / best["batched"]
    emit(
        capsys,
        "ablation_scan_kernel",
        table,
        data={
            "num_nodes": NUM_NODES,
            "num_events": stream.num_events,
            "num_windows": series.num_steps,
            "delta": DELTA,
            "legacy_seconds": float(best["legacy"]),
            "batched_seconds": float(best["batched"]),
            "speedup": float(speedup),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched kernel only {speedup:.2f}x faster than legacy "
        f"({best['batched']:.3f}s vs {best['legacy']:.3f}s); "
        f"need >= {MIN_SPEEDUP}x"
    )
