"""Batched vs legacy scan-kernel equivalence, and the density choice.

The batched kernel must be *bit-identical* to the legacy per-source
loop — trips, collector states and accumulator outputs — on every
input: directed and undirected series, destination-restricted scans,
``include_self``, and any chunking of the window working set.  The
legacy kernel is the in-tree oracle; these tests are the contract that
lets ``scan_series`` pick either kernel from window density without
the choice entering any cache key.  Tests force one kernel by moving
the density threshold (:func:`tests.strategies.force_scan_kernel`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occupancy import OccupancyCollector
from repro.datasets import load
from repro.generators import time_uniform_stream
from repro.graphseries import GraphSeries, aggregate
from repro.temporal import (
    CountingCollector,
    TripListCollector,
    reachability,
    scan_series,
)
from repro.temporal.reachability import (
    SCAN_COUNTS,
    DistanceTotals,
    EarliestArrivalAccumulator,
)
from tests.strategies import KERNEL_CHOICES, force_scan_kernel, link_streams


def _scan_state(series, *, kernel, targets=None, include_self=False):
    """Run one scan on ``kernel`` and snapshot every consumer's state."""
    trips = TripListCollector()
    counts = CountingCollector()
    occ = OccupancyCollector(bins=16, exact=True)
    totals = DistanceTotals()
    pairwise = EarliestArrivalAccumulator()
    with pytest.MonkeyPatch.context() as mp:
        force_scan_kernel(mp, kernel)
        scan_series(
            series,
            [trips, counts, occ, totals, pairwise],
            include_self=include_self,
            targets=targets,
        )
    t = trips.trips()
    occ_values = (
        np.concatenate(occ._chunks) if occ._chunks else np.empty(0)
    )
    return {
        "trips": (t.u, t.v, t.dep, t.arr, t.hops, t.durations),
        "trip_totals": (
            trips.num_recorded,
            trips.hops_total,
            trips.duration_total,
        ),
        "counts": (counts.num_trips, counts.max_hops, counts.max_duration),
        "occ": (occ.num_trips, occ_values),
        "totals": (
            totals.S,
            totals.C,
            totals.SH,
            totals.dist_sum,
            totals.hops_sum,
            totals.count_sum,
        ),
        "pairwise": (
            pairwise.reach_steps,
            pairwise.dist_sum,
            pairwise.hops_sum,
        ),
    }


def _kernel_spy(monkeypatch):
    """Count the windows each kernel processes in following scans."""
    calls = {"batched": 0, "legacy": 0}
    for kernel, name in (
        ("batched", "_process_group_batched"),
        ("legacy", "_process_group"),
    ):
        inner = getattr(reachability, name)

        def spy(*args, _inner=inner, _kernel=kernel, **kwargs):
            calls[_kernel] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(reachability, name, spy)
    return calls


def _assert_identical(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        for left, right in zip(state_a[key], state_b[key]):
            if isinstance(left, np.ndarray):
                assert np.array_equal(left, right), key
            else:
                assert left == right, key


def _targets_for(mode, num_nodes):
    if mode == 0:
        return None
    if mode == 1:
        return np.arange(max(1, num_nodes // 2), dtype=np.int64)
    return np.array([num_nodes - 1], dtype=np.int64)


class TestKernelBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(
        stream=link_streams(),
        delta=st.sampled_from([1.0, 2.0, 3.0, 5.0, 25.0]),
        include_self=st.booleans(),
        target_mode=st.integers(0, 2),
    )
    def test_batched_matches_legacy(
        self, stream, delta, include_self, target_mode
    ):
        series = aggregate(stream, delta)
        targets = _targets_for(target_mode, series.num_nodes)
        states = {
            kernel: _scan_state(
                series, kernel=kernel, targets=targets, include_self=include_self
            )
            for kernel in KERNEL_CHOICES
        }
        _assert_identical(states["batched"], states["legacy"])
        _assert_identical(states["auto"], states["legacy"])

    def test_auto_choice_matches_both_kernels_across_crossover(self):
        # A Δ grid from one link per window to hundreds: the automatic
        # choice runs the row loop at the fine end and the batched
        # kernel at the coarse end, bit-identical to both everywhere.
        stream = time_uniform_stream(12, 2, 600.0, seed=4)
        choices = set()
        for delta in (1.0, 4.0, 16.0, 64.0, 256.0):
            series = aggregate(stream, delta)
            choices.add(reachability._batched_pays(series))
            auto = _scan_state(series, kernel="auto")
            _assert_identical(auto, _scan_state(series, kernel="batched"))
            _assert_identical(auto, _scan_state(series, kernel="legacy"))
        assert choices == {False, True}

    def test_chunking_never_changes_results(self, monkeypatch):
        # Chunks hold whole (independent) sources, so any cell budget —
        # down to one forcing a chunk per source — is bit-identical.
        stream = time_uniform_stream(60, 1, 300.0, seed=11)
        series = aggregate(stream, 4.0)
        legacy = _scan_state(series, kernel="legacy")
        for cells in (1, 64, 1 << 20):
            monkeypatch.setattr(reachability, "BATCH_CELL_BUDGET", cells)
            _assert_identical(_scan_state(series, kernel="batched"), legacy)

    def test_packed_key_overflow_falls_back_to_legacy(self, monkeypatch):
        # num_steps near 2**32 makes a_inf * K overflow the int64
        # packing headroom; even with the batched kernel forced, the
        # scan must detect this up front and run the (bit-identical)
        # legacy kernel instead.
        top = 1 << 32
        step = np.array([top - 3, top - 2, top - 1], dtype=np.int64)
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        series = GraphSeries(5, top, step, u, v, directed=True)
        legacy = _scan_state(series, kernel="legacy")
        calls = _kernel_spy(monkeypatch)
        forced = _scan_state(series, kernel="batched")
        assert calls == {"batched": 0, "legacy": 3}
        _assert_identical(forced, legacy)


class TestKernelChoice:
    def test_sparse_replica_runs_rows_dense_stream_runs_batched(
        self, monkeypatch
    ):
        # The fine end of a paper sweep holds about one link per window;
        # the scan-kernel ablation's dense stream holds thousands.
        replica = load("irvine", scale="paper", seed=0)
        sparse = aggregate(replica, replica.resolution())
        dense_stream = time_uniform_stream(600, 1, 100_000.0, seed=3)
        dense = aggregate(dense_stream, 100_000.0 / 64)
        assert not reachability._batched_pays(sparse)
        assert reachability._batched_pays(dense)

        calls = _kernel_spy(monkeypatch)
        scan_series(sparse)
        assert calls["batched"] == 0
        assert calls["legacy"] == sparse.nonempty_steps().size
        calls["legacy"] = 0
        small_dense = aggregate(time_uniform_stream(40, 1, 1000.0, seed=3), 50.0)
        assert reachability._batched_pays(small_dense)
        scan_series(small_dense)
        assert calls == {
            "batched": small_dense.nonempty_steps().size,
            "legacy": 0,
        }

    def test_undirected_links_count_both_directions(self):
        # Two links per window: two directed hop rows, under the
        # crossover — but four once an undirected link counts both ways.
        step = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        u = np.array([0, 2, 0, 1, 1, 3], dtype=np.int64)
        v = np.array([1, 3, 2, 3, 2, 4], dtype=np.int64)
        directed = GraphSeries(5, 3, step, u, v, directed=True)
        undirected = GraphSeries(5, 3, step, u, v, directed=False)
        assert not reachability._batched_pays(directed)
        assert reachability._batched_pays(undirected)


class TestKernelPlumbing:
    def test_row_tallies_count_both_kernels(self):
        # Both kernels tally every nonempty window they process in the
        # one SCAN_COUNTS["windows"] counter.
        stream = time_uniform_stream(30, 1, 100.0, seed=9)
        series = aggregate(stream, 2.0)
        grew = {}
        for kernel in ("batched", "legacy"):
            before = SCAN_COUNTS["windows"]
            _scan_state(series, kernel=kernel)
            grew[kernel] = SCAN_COUNTS["windows"] - before
        assert grew["batched"] == grew["legacy"] == series.nonempty_steps().size

    def test_record_only_collector_works_under_batched_kernel(self):
        # Third-party registry collectors may only implement the
        # per-source record(); the fallback adapter must segment batches
        # back into per-source calls, preserving call order.
        class RecordOnly:
            def __init__(self):
                self.calls = []

            def record(self, source, dep, targets, arrivals, hops, durations):
                self.calls.append(
                    (source, dep, targets.copy(), arrivals.copy())
                )

            def merge(self, other):
                self.calls.extend(other.calls)
                return self

            @property
            def empty(self):
                return not self.calls

        stream = time_uniform_stream(25, 1, 80.0, seed=3)
        series = aggregate(stream, 2.0)
        via = {}
        for kernel in ("batched", "legacy"):
            via[kernel] = RecordOnly()
            with pytest.MonkeyPatch.context() as mp:
                force_scan_kernel(mp, kernel)
                scan_series(series, via[kernel])
        via_batched, via_legacy = via["batched"], via["legacy"]
        assert len(via_batched.calls) == len(via_legacy.calls)
        for got, want in zip(via_batched.calls, via_legacy.calls):
            assert got[0] == want[0] and got[1] == want[1]
            assert np.array_equal(got[2], want[2])
            assert np.array_equal(got[3], want[3])
