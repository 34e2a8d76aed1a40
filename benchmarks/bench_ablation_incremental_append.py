"""Ablation — warm incremental append vs from-scratch re-analysis.

The incremental-append machinery makes three claims for a dense stream
that grows by a ~10% suffix:

* **work** — a warm ``extend`` + analyze re-aggregates by splicing (one
  ``incremental`` aggregation, zero full ones) and re-scans only the
  unsettled window suffix: the appended windows plus at most one
  checkpoint stride of head windows, never the whole series.  Asserted
  on the ``AGGREGATION_COUNTS`` / ``SCAN_COUNTS["windows"]`` counter
  deltas.
* **wall clock** — the warm path beats the cold path by at least
  ``MIN_SPEEDUP``, best-of-``ROUNDS``, with bit-identity of every
  per-measure result gating the timings (a fast wrong answer fails
  before any number is reported).
* **zero-recompute floor** — appending an *empty* batch after a warm
  engine run performs **zero** scans: the fingerprint is unchanged, so
  the sweep cache serves every measure without touching the series.
"""

from __future__ import annotations

import math
from time import perf_counter

from _harness import emit

from repro.engine import SweepCache, SweepEngine, incremental_stats
from repro.engine.incremental import clear_incremental_store
from repro.engine.measures import OccupancyMeasure, ReachabilityMeasure
from repro.engine.tasks import AnalysisTask
from repro.generators import time_uniform_stream
from repro.graphseries.aggregation import (
    AGGREGATION_COUNTS,
    clear_aggregate_cache,
    window_index,
)
from repro.linkstream.stream import LinkStream
from repro.reporting import render_table
from repro.temporal.reachability import SCAN_COUNTS

#: Dense synthetic workload, same family as the scan-kernel ablation:
#: every pair linked once, uniform in time, coarse windows.  The last
#: ~10% of events (by count) form the append batch.
NUM_NODES = 600
SPAN = 100_000.0
DELTA = SPAN / 64.0
APPEND_FRACTION = 0.10

#: The acceptance claim of the incremental-append machinery.
MIN_SPEEDUP = 3.0
ROUNDS = 3

#: Scan-backed measures — the warm path's savings are in the scan, so
#: the workload should be scan-dominated (payload-only series metrics
#: would recompute identically on both paths and dilute the signal).
MEASURES = (OccupancyMeasure(), ReachabilityMeasure())


def _split_stream() -> tuple[LinkStream, LinkStream]:
    """A dense base stream and the same stream grown by a ~10% append."""
    full = time_uniform_stream(NUM_NODES, 1, SPAN, seed=3)
    cut = int(full.num_events * (1.0 - APPEND_FRACTION))
    # Integer timestamps collide; back the cut up to a strict boundary so
    # the append-only contract (every new time > t_max) holds.
    while cut > 0 and full.timestamps[cut] <= full.timestamps[cut - 1]:
        cut -= 1
    base = LinkStream(
        full.sources[:cut].copy(),
        full.targets[:cut].copy(),
        full.timestamps[:cut].copy(),
        directed=full.directed,
        num_nodes=full.num_nodes,
    )
    grown = base.extend(
        full.sources[cut:].copy(),
        full.targets[cut:].copy(),
        full.timestamps[cut:].copy(),
    )
    assert grown.fingerprint() == full.fingerprint()
    return base, grown


def _windows_scanned() -> int:
    return SCAN_COUNTS["windows"]


def test_incremental_append_ablation(benchmark, capsys):
    base, grown = _split_stream()
    task = AnalysisTask(delta=DELTA, measures=MEASURES)
    append_point = base.num_events
    suffix_start = int(
        window_index(
            grown.timestamps[append_point : append_point + 1],
            DELTA,
            float(grown.t_min),
        )[0]
    )

    def compare():
        # -- work accounting (one warm pass, counter-asserted) ------------
        clear_incremental_store()
        clear_aggregate_cache()
        windows_before = _windows_scanned()
        cold_result = task.evaluate(grown)
        cold_windows = _windows_scanned() - windows_before
        # Drop the cold run's own scan record: the warm pass must resume
        # from the *base* stream's checkpoints (the append scenario), not
        # from an exact-fingerprint re-analysis hit.
        clear_incremental_store()
        task.evaluate(base)  # warm the base record
        clear_aggregate_cache()  # the splice, not the memo, must serve
        agg_before = dict(AGGREGATION_COUNTS)
        windows_before = _windows_scanned()
        warm_result = task.evaluate(grown)
        agg_delta = {
            key: AGGREGATION_COUNTS[key] - agg_before[key]
            for key in AGGREGATION_COUNTS
        }
        warm_windows = _windows_scanned() - windows_before

        # Bit-identity gates everything below.
        assert repr(warm_result) == repr(cold_result), (
            "warm append-then-analyze diverged from from-scratch analysis"
        )
        assert agg_delta == {"aggregate": 0, "incremental": 1}, (
            f"warm aggregation was not a pure prefix splice: {agg_delta}"
        )
        stride = max(int(math.sqrt(cold_windows)), 1)
        unsettled_bound = (cold_windows - suffix_start) + stride + 2
        assert warm_windows < cold_windows, (
            f"warm scan visited {warm_windows} windows, no fewer than the "
            f"{cold_windows} a from-scratch scan visits"
        )
        assert warm_windows <= unsettled_bound, (
            f"warm scan visited {warm_windows} windows; only the appended "
            f"suffix plus one checkpoint stride ({unsettled_bound}) is "
            f"justified"
        )

        # -- wall clock ----------------------------------------------------
        timings = {"cold": [], "warm": []}
        for _ in range(ROUNDS):
            clear_incremental_store()
            clear_aggregate_cache()
            start = perf_counter()
            task.evaluate(grown)
            timings["cold"].append(perf_counter() - start)

            clear_incremental_store()
            clear_aggregate_cache()
            task.evaluate(base)  # untimed warmup: the prior analysis
            clear_aggregate_cache()
            start = perf_counter()
            task.evaluate(grown)
            timings["warm"].append(perf_counter() - start)
        best = {mode: min(elapsed) for mode, elapsed in timings.items()}

        # -- zero-event append performs zero scans -------------------------
        with SweepEngine("serial", cache=SweepCache.build()) as engine:
            engine.run(grown, [task])
            unchanged = grown.extend([])
            scans_before = SCAN_COUNTS["series"]
            engine.run(unchanged, [task])
            zero_append_scans = SCAN_COUNTS["series"] - scans_before
        assert zero_append_scans == 0, (
            f"zero-event append re-scanned {zero_append_scans} series"
        )

        rows = [
            ["cold (from scratch)", best["cold"], cold_windows, 1, 0],
            ["warm (append+resume)", best["warm"], warm_windows, 0, 1],
            ["zero-event append", 0.0, 0, 0, 0],
            ["speedup", best["cold"] / best["warm"], "", "", ""],
        ]
        return rows, best, warm_windows, cold_windows

    rows, best, warm_windows, cold_windows = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    speedup = best["cold"] / best["warm"]
    table = render_table(
        ["path", "wall_seconds", "scan_windows", "aggregates", "splices"],
        rows,
        title=(
            f"Ablation — incremental append (n={NUM_NODES}, "
            f"{grown.num_events} events, {APPEND_FRACTION:.0%} appended, "
            f"delta={DELTA:g})"
        ),
    )
    emit(
        capsys,
        "ablation_incremental_append",
        table,
        data={
            "num_nodes": NUM_NODES,
            "num_events": grown.num_events,
            "append_fraction": APPEND_FRACTION,
            "delta": DELTA,
            "cold_seconds": best["cold"],
            "warm_seconds": best["warm"],
            "speedup": speedup,
            "warm_scan_windows": warm_windows,
            "cold_scan_windows": cold_windows,
            "suffix_start_window": suffix_start,
            "incremental_store": incremental_stats(),
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"warm append path only {speedup:.2f}x faster than from-scratch "
        f"({best['warm']:.3f}s vs {best['cold']:.3f}s); need >= {MIN_SPEEDUP}x"
    )
