"""Scan-path equivalence: sparse path, batched kernel and row loop.

``scan_series`` keeps every scan on packed keys and sends each window
down one of two paths: the sparse row path when every source of the
window holds exactly one hop, the batched kernel otherwise.  Trips of a
run of sparse windows reach the collectors fused into one batch.  Both
paths, and the fused feed, must be *bit-identical* to the row loop —
trips in the same order, the same collector call sequence, collector
states and accumulator outputs — on every input: directed and
undirected series, destination-restricted scans, ``include_self``, and
any chunking of the batched working set.  The row loop (the int64
overflow fallback of ``scan_series`` and the kernel of ``scan_stream``)
is the oracle; ``temporal.bruteforce`` checks all of them from first
principles.  Tests force a path with
:func:`tests.strategies.force_scan_kernel`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occupancy import OccupancyCollector
from repro.datasets import load
from repro.generators import time_uniform_stream
from repro.graphseries import GraphSeries, aggregate
from repro.linkstream import LinkStream
from repro.temporal import (
    CheckpointRecorder,
    CountingCollector,
    TripListCollector,
    bruteforce_minimal_trips,
    bruteforce_pair_reachability,
    reachability,
    scan_series,
)
from repro.temporal.reachability import (
    SCAN_COUNTS,
    DistanceTotals,
    EarliestArrivalAccumulator,
)
from tests.strategies import (
    KERNEL_CHOICES,
    force_scan_kernel,
    link_streams,
    shaped_series,
)


class RecordOnly:
    """A collector with only the per-source ``record`` protocol: logs
    every call, so the fallback's call sequence can be compared."""

    def __init__(self):
        self.calls = []

    def record(self, source, dep, targets, arrivals, hops, durations):
        self.calls.append(
            (
                type(source), source, type(dep), dep, targets.tolist(),
                arrivals.tolist(), hops.tolist(), durations.tolist(),
            )
        )

    def merge(self, other):
        self.calls.extend(other.calls)
        return self

    def segment_handoff(self):
        return RecordOnly()

    @property
    def empty(self):
        return not self.calls


def _scan_state(series, *, kernel, targets=None, include_self=False):
    """Run one scan on ``kernel`` and snapshot every consumer's state."""
    trips = TripListCollector()
    counts = CountingCollector()
    occ = OccupancyCollector(bins=16, exact=True)
    calls = RecordOnly()
    totals = DistanceTotals()
    pairwise = EarliestArrivalAccumulator()
    with pytest.MonkeyPatch.context() as mp:
        force_scan_kernel(mp, kernel)
        result = scan_series(
            series,
            [trips, counts, occ, calls, totals, pairwise],
            include_self=include_self,
            targets=targets,
        )
    t = trips.trips()
    occ_values = (
        np.concatenate(occ._chunks) if occ._chunks else np.empty(0)
    )
    return {
        "result": (result.num_trips, result.num_steps),
        "trips": (t.u, t.v, t.dep, t.arr, t.hops, t.durations),
        "trip_dtypes": tuple(
            str(a.dtype) for a in (t.u, t.v, t.dep, t.arr, t.hops, t.durations)
        ),
        "trip_totals": (
            trips.num_recorded,
            trips.hops_total,
            trips.duration_total,
        ),
        "counts": (counts.num_trips, counts.max_hops, counts.max_duration),
        "occ": (occ.num_trips, occ_values),
        "calls": (calls.calls,),
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


def _path_spy(monkeypatch):
    """Count the windows each scan path processes in following scans."""
    calls = {"sparse": 0, "batched": 0, "legacy": 0}
    for path, name in (
        ("sparse", "_process_group_sparse"),
        ("batched", "_process_group_batched"),
        ("legacy", "_process_group"),
    ):
        inner = getattr(reachability, name)

        def spy(*args, _inner=inner, _path=path, **kwargs):
            calls[_path] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(reachability, name, spy)
    return calls


def _assert_identical(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        for left, right in zip(state_a[key], state_b[key]):
            if isinstance(left, np.ndarray):
                assert left.dtype == right.dtype, key
                assert np.array_equal(left, right), key
            else:
                assert left == right, key


def _targets_for(mode, num_nodes):
    if mode == 0:
        return None
    if mode == 1:
        return np.arange(max(1, num_nodes // 2), dtype=np.int64)
    return np.array([num_nodes - 1], dtype=np.int64)


def _expected_sparse(series):
    """The sparse-window flags, one window at a time."""
    flags = []
    for _, u, v in series.edge_groups():
        sources = u if series.directed else np.concatenate([u, v])
        flags.append(np.unique(sources).size == sources.size)
    return np.array(flags, dtype=bool)


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
        for kernel in KERNEL_CHOICES:
            _assert_identical(states[kernel], states["legacy"])

    @settings(max_examples=120, deadline=None)
    @given(
        series=shaped_series(),
        include_self=st.booleans(),
        target_mode=st.integers(0, 2),
    )
    def test_dispatch_matches_row_loop_and_bruteforce(
        self, series, include_self, target_mode
    ):
        # Windows mixing single links, matchings and stars exercise both
        # paths and every switch between them within one scan.
        targets = _targets_for(target_mode, series.num_nodes)
        assert np.array_equal(
            reachability._sparse_windows(series), _expected_sparse(series)
        )
        auto = _scan_state(
            series, kernel="auto", targets=targets, include_self=include_self
        )
        legacy = _scan_state(
            series, kernel="legacy", targets=targets, include_self=include_self
        )
        _assert_identical(auto, legacy)

        u, v, dep, arr, hops, _ = auto["trips"]
        got = sorted(zip(u.tolist(), v.tolist(), dep.tolist(), arr.tolist(),
                         hops.tolist()))
        oracle = bruteforce_minimal_trips(series, include_self=include_self)
        keep = (
            np.ones(len(oracle), dtype=bool)
            if targets is None
            else np.isin(oracle.v, targets)
        )
        expected = sorted(
            (int(a), int(b), float(c), float(d), int(e))
            for a, b, c, d, e in zip(
                oracle.u[keep], oracle.v[keep], oracle.dep[keep],
                oracle.arr[keep], oracle.hops[keep],
            )
        )
        assert got == expected
        if targets is None:
            reach, dist, hop_sums = bruteforce_pair_reachability(series)
            pair_reach, pair_dist, pair_hops = (
                m.copy() for m in auto["pairwise"]
            )
            for matrix in (pair_reach, pair_dist, pair_hops):
                np.fill_diagonal(matrix, 0)
            assert np.array_equal(pair_reach, reach)
            assert np.array_equal(pair_dist, dist)
            assert np.array_equal(pair_hops, hop_sums)
            totals = auto["totals"]
            assert totals[3:] == (
                int(dist.sum()), int(hop_sums.sum()), int(reach.sum())
            )

    def test_auto_choice_matches_both_kernels_across_crossover(self):
        # A Δ grid from one link per window to hundreds: the dispatch
        # sends the fine end's windows down the sparse path and the
        # coarse end's to the batched kernel, bit-identical to the
        # forced batched kernel and the row loop everywhere.
        stream = time_uniform_stream(12, 2, 600.0, seed=4)
        used = {"sparse": 0, "batched": 0, "legacy": 0}
        for delta in (1.0, 4.0, 16.0, 64.0, 256.0):
            series = aggregate(stream, delta)
            with pytest.MonkeyPatch.context() as mp:
                calls = _path_spy(mp)
                auto = _scan_state(series, kernel="auto")
            for path, count in calls.items():
                used[path] += count
            _assert_identical(auto, _scan_state(series, kernel="batched"))
            _assert_identical(auto, _scan_state(series, kernel="legacy"))
        assert used["sparse"] and used["batched"] and not used["legacy"]

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
        # packing headroom; the scan must detect this up front and run
        # the (bit-identical) row loop instead of either packed path.
        top = 1 << 32
        step = np.array([top - 3, top - 2, top - 1], dtype=np.int64)
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        series = GraphSeries(5, top, step, u, v, directed=True)
        legacy = _scan_state(series, kernel="legacy")
        calls = _path_spy(monkeypatch)
        auto = _scan_state(series, kernel="auto")
        assert calls == {"sparse": 0, "batched": 0, "legacy": 3}
        _assert_identical(auto, legacy)
        # Such a scan has no key dtype for its checkpoints either.
        recorder = CheckpointRecorder()
        scan_series(series, CountingCollector(), checkpoints=recorder)
        assert not recorder.checkpoints


class TestPackedKeys:
    def test_key_dtype_is_the_narrowest_holding_every_key(self):
        # The largest key a scan forms is (a_inf + 1) * K, K = a_inf + 2.
        for a_inf, dtype in (
            (1, np.int8),
            (9, np.int8),
            (10, np.int16),
            (179, np.int16),
            (180, np.int32),
            (46_339, np.int32),
            (46_340, np.int64),
            ((1 << 31) - 3, np.int64),
        ):
            assert reachability._key_dtype(a_inf, a_inf + 2) == dtype, a_inf
        top = 1 << 32
        assert reachability._key_dtype(top, top + 2) is None

    @pytest.mark.parametrize("kernel", ["batched", "auto"])
    def test_live_state_and_checkpoints_share_the_key_dtype(
        self, kernel, monkeypatch
    ):
        stream = time_uniform_stream(20, 1, 3000.0, seed=5)
        series = aggregate(stream, 15.0)
        a_inf = series.num_steps
        expected = reachability._key_dtype(a_inf, a_inf + 2)
        assert expected == np.int32
        live = {}
        for name in ("_process_group_sparse", "_process_group_batched"):
            inner = getattr(reachability, name)

            def spy(P, *args, _inner=inner, _name=name, **kwargs):
                live.setdefault(_name, set()).add(P.dtype)
                return _inner(P, *args, **kwargs)

            monkeypatch.setattr(reachability, name, spy)
        force_scan_kernel(monkeypatch, kernel)
        recorder = CheckpointRecorder()
        scan_series(series, CountingCollector(), checkpoints=recorder)
        assert set().union(*live.values()) == {expected}
        if kernel == "batched":
            assert live.keys() == {"_process_group_batched"}
        else:
            assert "_process_group_batched" in live and len(live) > 1
        assert recorder.checkpoints
        for checkpoint in recorder.checkpoints:
            assert checkpoint.P.dtype == expected
            assert checkpoint.P.shape == (series.num_nodes,) * 2
            assert not checkpoint.P.flags.writeable
            assert not hasattr(checkpoint, "A") and not hasattr(checkpoint, "H")

    def test_accumulator_feeds_identical_under_narrow_and_wide_keys(self):
        # EarliestArrivalAccumulator unpacks its own packed rows; an
        # accumulator that only defines observe_row goes through the
        # per-row adapter.  Both must see exactly the row loop's feed,
        # whatever the path and the key width.
        class RowOnly:  # repro: ignore[collector-contract] -- feed recorder, never merged
            def __init__(self):
                self.calls = []

            def observe_row(self, source, step, old_A, old_H, new_A, new_H, self_col):
                self.calls.append(
                    (
                        source, step, self_col, old_A.dtype, new_H.dtype,
                        old_A.tolist(), old_H.tolist(),
                        new_A.tolist(), new_H.tolist(),
                    )
                )

            def close_run(self, t_low, t_high):
                self.calls.append(("run", t_low, t_high))

        rng = np.random.default_rng(8)
        u, v = rng.integers(0, 16, (2, 300))
        keep = u != v
        directed = LinkStream(
            u[keep], v[keep], np.sort(rng.uniform(0.0, 400.0, keep.sum())),
            directed=True, num_nodes=16,
        )
        undirected = time_uniform_stream(16, 1, 400.0, seed=8)
        for stream, delta, targets in (
            (undirected, 2.0, None),
            (undirected, 8.0, np.array([3, 7, 11])),
            (directed, 1.0, None),
            (directed, 4.0, np.array([3, 7, 11])),
        ):
            series = aggregate(stream, delta)
            seen = {}
            for kernel in KERNEL_CHOICES:
                rows = RowOnly()
                pairwise = EarliestArrivalAccumulator()
                with pytest.MonkeyPatch.context() as mp:
                    force_scan_kernel(mp, kernel)
                    scan_series(series, [rows, pairwise], targets=targets)
                seen[kernel] = (
                    rows.calls,
                    pairwise.reach_steps.tolist(),
                    pairwise.dist_sum.tolist(),
                    pairwise.hops_sum.tolist(),
                )
            for kernel in KERNEL_CHOICES:
                assert seen[kernel] == seen["legacy"], kernel


class TestKernelChoice:
    def test_sparse_replica_runs_rows_dense_stream_runs_batched(
        self, monkeypatch
    ):
        # The fine end of a paper sweep holds about one link per window,
        # so nearly every window takes the sparse row path; the
        # scan-kernel ablation's dense stream holds thousands of links
        # per window, all batched.  The row loop never runs.
        replica = load("irvine", scale="paper", seed=0)
        sparse = aggregate(replica, replica.resolution())
        flags = reachability._sparse_windows(sparse)
        assert np.array_equal(flags, _expected_sparse(sparse))
        assert flags.mean() > 0.9

        calls = _path_spy(monkeypatch)
        scan_series(sparse)
        assert calls == {
            "sparse": int(flags.sum()),
            "batched": int((~flags).sum()),
            "legacy": 0,
        }
        small_dense = aggregate(time_uniform_stream(40, 1, 1000.0, seed=3), 50.0)
        assert not reachability._sparse_windows(small_dense).any()
        calls.update(sparse=0, batched=0)
        scan_series(small_dense)
        assert calls == {
            "sparse": 0,
            "batched": small_dense.nonempty_steps().size,
            "legacy": 0,
        }

    def test_undirected_links_count_both_directions(self):
        # Window 0 is a directed path 0 -> 1 -> 2: each source holds one
        # hop.  Undirected, node 1 is the source of two hops (1 -> 0 and
        # 1 -> 2).  Window 1 is a matching: sparse either way.
        step = np.array([0, 0, 1, 1], dtype=np.int64)
        u = np.array([0, 1, 0, 2], dtype=np.int64)
        v = np.array([1, 2, 1, 3], dtype=np.int64)
        directed = GraphSeries(5, 2, step, u, v, directed=True)
        undirected = GraphSeries(5, 2, step, u, v, directed=False)
        assert reachability._sparse_windows(directed).tolist() == [True, True]
        assert reachability._sparse_windows(undirected).tolist() == [False, True]

    def test_in_stars_are_sparse_out_stars_are_not(self):
        step = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        u = np.array([1, 2, 3, 0, 0, 0], dtype=np.int64)
        v = np.array([0, 0, 0, 1, 2, 3], dtype=np.int64)
        series = GraphSeries(4, 2, step, u, v, directed=True)
        assert reachability._sparse_windows(series).tolist() == [True, False]


class TestFusedFeed:
    def _sparse_run_series(self):
        # Windows 9..4 are single links or matchings (sparse), window 3
        # an out-star (batched), windows 2..0 single links again.
        rows = [
            (9, 0, 1), (8, 1, 2), (7, 2, 3), (7, 4, 5), (6, 3, 4),
            (5, 5, 0), (4, 0, 2), (3, 2, 0), (3, 2, 1), (3, 2, 5),
            (2, 1, 3), (1, 4, 1), (0, 3, 4),
        ]
        step, u, v = (np.array(c, dtype=np.int64) for c in zip(*rows))
        return GraphSeries(6, 10, step, u, v, directed=True)

    def test_sparse_runs_reach_collectors_as_one_batch(self):
        series = self._sparse_run_series()
        assert reachability._sparse_windows(series).tolist() == [
            True, True, True, False, True, True, True, True, True, True,
        ]

        class BatchLog:
            def __init__(self):
                self.batches = []

            def record(self, *args):  # pragma: no cover - batch feed only
                raise AssertionError("record_batch collectors get batches")

            def record_batch(self, sources, dep, targets, arrivals, hops, durations):
                assert dep.dtype == np.int64 and dep.shape == targets.shape
                self.batches.append(sorted(set(dep.tolist()), reverse=True))

            def merge(self, other):
                self.batches.extend(other.batches)
                return self

            @property
            def empty(self):
                return not self.batches

        log = BatchLog()
        scan_series(series, log)
        # One batch for the run 9..4, one for the batched window 3, one
        # for the run 2..0: trips depart only at windows with links.
        assert [batch[0] for batch in log.batches] == [9, 3, 2]
        assert set(log.batches[0]) <= {9, 8, 7, 6, 5, 4}
        assert log.batches[1] == [3]
        assert set(log.batches[2]) <= {2, 1, 0}
        _assert_identical(
            _scan_state(series, kernel="auto"),
            _scan_state(series, kernel="legacy"),
        )

    def test_row_cap_splits_a_run_without_changing_results(self, monkeypatch):
        series = aggregate(load("irvine", scale="paper", seed=0), 600.0)
        expected = _scan_state(series, kernel="legacy")
        for cap in (1, 7, 1 << 16):
            monkeypatch.setattr(reachability, "FEED_MAX_ROWS", cap)
            _assert_identical(_scan_state(series, kernel="auto"), expected)


class TestKernelPlumbing:
    def test_row_tallies_count_both_kernels(self):
        # Every path tallies each nonempty window it processes in the
        # one SCAN_COUNTS["windows"] counter.
        stream = time_uniform_stream(30, 1, 100.0, seed=9)
        grew = {}
        for delta in (2.0, 0.5):
            series = aggregate(stream, delta)
            for kernel in ("auto", "batched", "legacy"):
                before = SCAN_COUNTS["windows"]
                _scan_state(series, kernel=kernel)
                grew[kernel] = SCAN_COUNTS["windows"] - before
            assert set(grew.values()) == {series.nonempty_steps().size}

    def test_record_only_collector_works_under_batched_kernel(self):
        # Third-party registry collectors may only implement the
        # per-source record(); the fallback adapter must segment batches
        # (fused sparse runs included) back into the row loop's
        # per-(window, source) calls, in order, with the same scalars.
        stream = time_uniform_stream(25, 1, 80.0, seed=3)
        for delta in (2.0, 0.25):
            series = aggregate(stream, delta)
            via = {}
            for kernel in KERNEL_CHOICES:
                via[kernel] = RecordOnly()
                with pytest.MonkeyPatch.context() as mp:
                    force_scan_kernel(mp, kernel)
                    scan_series(series, via[kernel])
            assert via["legacy"].calls
            for kernel in KERNEL_CHOICES:
                assert via[kernel].calls == via["legacy"].calls, kernel
