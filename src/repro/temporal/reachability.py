"""Backward reachability scan — the paper's ``O(nM)`` dynamic program.

Section 5 sketches the algorithm: *"a dynamic programming scheme going
backward in time: at one step, knowing all the minimal trips of the
series starting not before time k+1, the algorithm computes the minimal
trips starting exactly at time k, their duration and their minimum
number of hops."*

Concretely, the scan maintains two ``n x n`` matrices while sweeping the
windows ``k = K .. 1``:

* ``A[u, v]`` — earliest arrival at ``v`` among temporal paths leaving
  ``u`` at time >= ``k`` (the next window to be processed);
* ``H[u, v]`` — minimum hop count among the paths achieving ``A[u, v]``.

Processing window ``k``, a hop ``(u, w)`` reaches ``v`` at time ``k`` if
``w == v`` and otherwise at ``A_next[w, v]`` (the continuation departs at
``>= k+1``: two links of one window never chain — Remark 1 of the
paper).  Whenever the best candidate strictly improves on
``A_next[u, v]``, the quadruplet ``(u, v, k, arrival)`` is a **minimal
trip**: departing later arrives strictly later, and every path achieving
this arrival makes its first hop exactly at ``k``.  Candidates tying on
arrival keep the smaller hop count, so ``H`` stays exact.

Each window touches only the rows of its edge sources, with all reads
staged from a pre-window copy, giving ``O(n · |E_k|)`` work per window —
``O(nM)`` overall, matching the paper's claim.  The same core runs on a
raw link stream by treating each distinct timestamp as a window and
switching the duration convention from ``arr - dep + 1`` (window counts)
to ``arr - dep`` (Definition 4).

Scan kernels
------------
:func:`scan_series` keeps every ``(A, H)`` cell packed into a single
lexicographic integer key ``A * K + H`` for the *whole* scan (``K`` and
the infinity sentinel are analytic scan-wide constants: arrivals are
window indices and no minimal trip exceeds ``num_steps`` hops), so one
minimum over packed keys selects the earliest arrival with the
fewest-hops tie-break for free.  The keys live in the narrowest signed
integer dtype that holds the largest key the scan can form
(:func:`_key_dtype`): int32 for any scan of up to ~46,000 windows,
int16 or int8 for short ones, int64 beyond.  Each window then takes one
of two paths over that state:

* the **sparse row path** (:func:`_process_group_sparse`), when every
  directed source of the window holds exactly one hop — a single link,
  a matching, an in-star; the per-scan flags come from
  :func:`_sparse_windows`.  Each source's candidate row is then just its
  hop's continuation row, so the window is a handful of whole-array
  operations: gather ``P[vs]``, add one hop, scatter the direct hops,
  compare against the old keys' arrival floor, commit the minimum.
* the **batched kernel** (:func:`_process_group_batched`) otherwise: it
  vectorizes the window across all sources, taking segment minima of
  the packed keys via size-bucketed padded gathers over the hop rows
  sorted by source; direct-hop arrivals scatter in one shot and all
  updated rows commit with a single fancy-indexed write.  The staged
  ``(hops × width)`` working set is chunked (whole sources per chunk) to
  bound memory.

Trips of consecutive sparse windows are buffered (:class:`_TripFeed`)
and reach the collectors as **one** ``record_batch`` per run, in the
row loop's emission order: window descending, then source, then
destination.  The buffer is flushed before every batched window, before
each checkpoint capture and consumer handoff, at the settled boundary
or the end of the scan, and at :data:`FEED_MAX_ROWS` trips.  Every
collector batch carries ``dep`` as an int64 array parallel to
``targets``; accumulators are fed per window through ``observe_rows``,
which receives the packed old/new rows with ``K`` and ``a_inf``.
Consumers without the batch methods get adapters — per-``(dep,
source)`` ``record`` calls and per-row ``observe_row`` calls over
unpacked rows — so third-party consumers keep working unchanged.

The original per-source row loop (:func:`_process_group`, unpacked
``(A, H)`` state) remains for :func:`scan_stream`, whose float
timestamps cannot be packed, and for the series scan whose keys would
overflow int64 (:func:`_scan_rows`), which records and resumes no
checkpoints; the tests use it as the oracle for the packed paths.  All
paths are bit-identical — same trips in the same order, the same
collector call sequence, same collector states, same accumulator sums —
across directed/undirected input, ``targets`` shards, ``include_self``,
checkpoint/resume scans and every backend, so the choice never enters a
cache key and there is no knob to make it.

One scan, many measures
-----------------------
:func:`scan_series` accepts a *set* of consumers and feeds them all from
a single backward pass, so evaluating several measures of one aggregated
series (occupancy rates, distance statistics, full trip lists) costs one
scan, not one scan per measure.  Two consumer shapes exist:

* **trip collectors** (anything with ``record(...)`` — the
  :class:`~repro.temporal.collectors.TripCollector` protocol) receive
  every minimal-trip batch the scan discovers;
* **state accumulators** (anything with ``observe_row(...)`` /
  ``close_run(...)`` — see :class:`DistanceTotals`) watch the arrival
  matrix itself and fold per-departure-step quantities in closed form.
  An accumulator may additionally define ``begin(num_nodes, num_steps,
  cols)``, called once before the backward pass with the scan's exact
  geometry (``cols`` is the target restriction, ``None`` for a full
  scan), and ``finish()``, called once after it — the hooks per-pair
  accumulators use to allocate their state and fold its tail.

:class:`DistanceTotals` is the accumulator behind the classical distance
statistics (Figure 2 bottom); it used to be hard-wired into the scan via
a ``compute_distances`` flag and is now an ordinary member of the
consumer set, mergeable across destination shards exactly like the trip
collectors.  :class:`EarliestArrivalAccumulator` keeps the same sums
*per ordered pair* instead of globally — the state behind the engine's
``reachability`` measure.

The recursion couples the *rows* of the state (row ``u`` reads the rows
of ``u``'s out-neighbours) but never its columns: ``A[u, v]`` depends
only on entries ``A[w, v]`` of the same column ``v``.  Each column — one
trip destination — is therefore an independent dynamic program, which is
what :func:`scan_series`'s ``targets=`` restriction exploits: the state
shrinks to the chosen columns, per-window work drops proportionally, and
the trips found are exactly the full scan's trips whose destination lies
in the subset.  Disjoint target subsets covering ``V`` partition the
trip set — and partition the finite arrival entries, so a restricted
:class:`DistanceTotals` holds exactly the full scan's contributions for
its columns.  Sharded scans therefore merge back bit-identically for
*every* measure (the engine's within-Δ sharding,
:mod:`repro.engine.tasks`).
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.utils.errors import ValidationError

#: Sentinel for "unreachable" in integer arrival matrices.  Kept far from
#: the dtype maximum so that ``+ 1`` arithmetic can never overflow.
INT_INF = np.iinfo(np.int64).max // 4
#: Sentinel for "no hop count" (unreachable entries).
HOP_INF = np.iinfo(np.int64).max // 4

#: Scan instrumentation: how many backward passes this process has run
#: (``series``, ``stream``) and how many nonempty windows they processed
#: on any scan path (``windows``).  The measure-fusion tests and
#: benches assert "one scan per Δ", and the incremental ones "fewer
#: windows rescanned", against these counters; they are plain tallies
#: with no behavioural effect (each worker process keeps its own).
SCAN_COUNTS = {"series": 0, "stream": 0, "windows": 0}

#: Upper bound on the cells (hop rows × state width) the batched kernel
#: stages per chunk; chunks always hold whole sources.  This bounds each
#: staged continuation matrix near 4 MB at int32 keys (8 MB at int64).
#: The value never affects results, only peak memory.
BATCH_CELL_BUDGET = 1 << 20

#: Trips the sparse-window path buffers before handing them to the
#: collectors (about 2 MB of trip arrays).  A run of sparse windows
#: reaches the collectors as one batch up to this size.  The value never
#: affects results, only peak memory.
FEED_MAX_ROWS = 1 << 16


@dataclass(frozen=True)
class DistanceStats:
    """Aggregate distance statistics over all pairs and departure steps.

    ``mean_distance_steps`` is the mean of ``d_time(u, v, t)`` (in window
    counts) over every ordered pair ``u != v`` and every departure step
    ``t`` with a finite distance; ``mean_distance_hops`` averages
    ``d_hops`` over the same support.  Multiply the former by Δ to get the
    paper's *distance in absolute time*.
    """

    mean_distance_steps: float
    mean_distance_hops: float
    reachable_fraction: float
    reachable_count: int


def _finite_totals(P: np.ndarray, K: int, a_inf: int) -> tuple[int, int, int]:
    """``(Σ A, #finite, Σ H)`` over the finite cells of packed keys ``P``.

    Sums whole arrays in the keys' own dtype instead of masking: every
    infinite cell holds the canonical key ``a_inf * K + (K - 1)``, so
    its ``A == a_inf`` and ``H == K - 1`` come back out in closed form.
    Components are bounded by ``K``, so the int64 sums never overflow.
    """
    A = P // K
    H = P - A * K
    infinite = int(np.count_nonzero(A == a_inf))
    return (
        int(A.sum(dtype=np.int64)) - a_inf * infinite,
        P.size - infinite,
        int(H.sum(dtype=np.int64)) - (K - 1) * infinite,
    )


class DistanceTotals:
    """Accumulates the classical distance sums from a backward scan.

    The scan exposes two hooks.  :meth:`observe_row` sees every state-row
    update (the pre- and post-window arrival/hop rows of the touched
    source) and maintains the current window-state totals ``S = Σ A``,
    ``C = #finite``, ``SH = Σ H`` over finite non-diagonal entries.
    :meth:`close_run` folds those totals into the departure-step sums for
    a run of steps over which the state is constant (every step between
    two nonempty windows sees the same reachability picture), in closed
    form.

    All sums are kept as exact Python integers — every contribution is an
    integer, so the accumulated totals are associative under
    :meth:`merge` regardless of shard layout or merge order, and the
    final means divide once at :meth:`stats` time.  (The former
    float-accumulation path agreed bit-for-bit below 2**53 but was
    neither shard-stable nor exact beyond it.)

    A scan restricted to a destination subset (``targets=``) accumulates
    exactly the full scan's contributions for its columns: columns are
    independent dynamic programs and the diagonal entry ``(u, u)`` lives
    in exactly one shard.  Disjoint shards covering the node set
    therefore :meth:`merge` back into precisely the unrestricted
    accumulator.
    """

    __slots__ = ("S", "C", "SH", "dist_sum", "hops_sum", "count_sum")

    def __init__(self) -> None:
        self.S = 0
        self.C = 0
        self.SH = 0
        self.dist_sum = 0
        self.hops_sum = 0
        self.count_sum = 0

    def observe_row(
        self,
        source: int,
        step: int,
        old_A: np.ndarray,
        old_H: np.ndarray,
        new_A: np.ndarray,
        new_H: np.ndarray,
        self_col: int,
    ) -> None:
        """Fold one source-row update into the window-state totals.

        ``source`` is the node whose state row was updated and ``step``
        the window being processed (both unused here — the totals are
        global and folded run-wise through :meth:`close_run` — but part
        of the accumulator contract so per-pair accumulators can fold
        row-wise instead).  ``self_col`` is the column position of the
        row's own node (the diagonal entry, excluded from distance
        statistics), or -1 when the scan's target restriction excludes
        that node.
        """
        old_finite = old_A < INT_INF
        new_finite = new_A < INT_INF
        if self_col >= 0:
            old_finite[self_col] = False
            new_finite[self_col] = False
        self.S += int(new_A[new_finite].sum()) - int(old_A[old_finite].sum())
        self.C += int(new_finite.sum()) - int(old_finite.sum())
        self.SH += int(new_H[new_finite].sum()) - int(old_H[old_finite].sum())

    def observe_rows(
        self,
        sources: np.ndarray,
        step: int,
        old_P: np.ndarray,
        new_P: np.ndarray,
        K: int,
        a_inf: int,
        self_cols: np.ndarray,
    ) -> None:
        """Vectorized :meth:`observe_row` over one batch of packed rows.

        ``old_P``/``new_P`` are ``(len(sources), width)`` matrices of the
        scan's packed keys ``A * K + H`` (any integer dtype): a
        cell is finite when its key is below ``a_inf * K``, and infinite
        cells hold the canonical ``a_inf * K + (K - 1)``.
        ``self_cols`` is the per-row diagonal column (-1 where the target
        restriction excludes the row's node).  The totals are sums of
        exact integers, so this is bit-identical to per-row
        :meth:`observe_row` calls on the unpacked rows.
        """
        diag_rows = np.flatnonzero(self_cols >= 0)
        diag_cols = self_cols[diag_rows]
        for sign, P in ((1, new_P), (-1, old_P)):
            S, C, SH = _finite_totals(P, K, a_inf)
            diag_S, diag_C, diag_SH = _finite_totals(
                P[diag_rows, diag_cols], K, a_inf
            )
            self.S += sign * (S - diag_S)
            self.C += sign * (C - diag_C)
            self.SH += sign * (SH - diag_SH)

    def close_run(self, t_low: int, t_high: int) -> None:
        """Fold the current state into the sums for departures in
        ``[t_low, t_high]``.

        For each departure step ``t`` in the run, every finite entry
        contributes ``A - t + 1`` to the distance-in-steps sum and ``H``
        to the hops sum; with ``S``, ``C``, ``SH`` constant across the
        run this folds into closed form.
        """
        if t_high < t_low:
            return
        run_len = t_high - t_low + 1
        t_total = (t_low + t_high) * run_len // 2
        self.dist_sum += run_len * (self.S + self.C) - self.C * t_total
        self.hops_sum += run_len * self.SH
        self.count_sum += run_len * self.C

    def merge(self, other: "DistanceTotals") -> "DistanceTotals":
        """Absorb another accumulator's sums (in-place; returns ``self``).

        The inverse of sharding a scan: accumulators fed from disjoint
        target shards of the same series sum back — all six tallies are
        exact integers — to precisely the accumulator an unrestricted
        scan would have produced.
        """
        if not isinstance(other, DistanceTotals):
            raise ValidationError(
                f"cannot merge DistanceTotals with {type(other).__name__}"
            )
        self.S += other.S
        self.C += other.C
        self.SH += other.SH
        self.dist_sum += other.dist_sum
        self.hops_sum += other.hops_sum
        self.count_sum += other.count_sum
        return self

    def segment_handoff(self) -> "DistanceTotals":
        """Freeze this accumulator as a scan segment; return its successor.

        The checkpoint contract of incremental scan resume: at a
        checkpointed window boundary the scan swaps in the returned
        accumulator, which *takes over* the live window-state totals
        ``S``/``C``/``SH`` (they describe the scan state, not this
        span's contributions) and keeps folding; ``self`` keeps only the
        departure-run sums it accumulated — exactly one window span's
        contribution, splicable via :meth:`absorb_segment`.
        """
        live = DistanceTotals()
        live.S, live.C, live.SH = self.S, self.C, self.SH
        self.S = self.C = self.SH = 0
        return live

    def absorb_segment(self, other: "DistanceTotals") -> "DistanceTotals":
        """Add a cached span's *contributions* (in-place; returns ``self``).

        Unlike :meth:`merge` — the shard rule, which also sums the
        window-state totals — splicing a contiguous window span must add
        only the departure-run sums: the span's ``S``/``C``/``SH`` are
        scan state already carried forward by the handoff chain (zero on
        stored segments), never a contribution.  Reads but never mutates
        ``other``, so cached segments survive any number of splices.
        """
        if not isinstance(other, DistanceTotals):
            raise ValidationError(
                f"cannot splice DistanceTotals with {type(other).__name__}"
            )
        self.dist_sum += other.dist_sum
        self.hops_sum += other.hops_sum
        self.count_sum += other.count_sum
        return self

    def stats(self, num_nodes: int, num_steps: int) -> DistanceStats:
        """Assemble the accumulated sums into :class:`DistanceStats`.

        ``num_nodes`` and ``num_steps`` give the support of the means —
        the *full* series geometry, so shard accumulators must be merged
        first (a lone shard would report a fraction over the wrong
        denominator).
        """
        total_possible = num_nodes * (num_nodes - 1) * num_steps
        count = self.count_sum
        return DistanceStats(
            mean_distance_steps=self.dist_sum / count if count else float("inf"),
            mean_distance_hops=self.hops_sum / count if count else float("inf"),
            reachable_fraction=count / total_possible if total_possible else 0.0,
            reachable_count=count,
        )


class EarliestArrivalAccumulator:
    """Per-pair earliest-arrival sums from a backward scan.

    The same closed-form departure-run folding as
    :class:`DistanceTotals`, kept *per ordered pair* instead of
    globally: for every source ``u`` and every scanned destination
    column ``c`` the accumulator counts the departure steps from which
    ``u`` reaches ``c`` (``reach_steps``) and sums the corresponding
    distances in window counts (``dist_sum``, each finite entry
    contributing ``A - t + 1`` per departure step ``t``) and minimum hop
    counts (``hops_sum``).  All three are exact ``int64`` matrices of
    shape ``(num_nodes, num_columns)``, column ``j`` describing
    destination node ``cols[j]``.

    Folding is **row-wise**: a state row only changes when the scan
    updates it, so each row's current values are constant over the
    departure steps between two of its updates.  :meth:`observe_row`
    folds the outgoing values over that interval in closed form — ``O(
    width)`` per row update, the same order as the update itself — and
    :meth:`finish` folds each row's final values down to departure step
    0.  (:meth:`close_run`, the global-run hook, is a deliberate no-op
    here.)  A target-restricted scan accumulates exactly the full
    scan's columns for its ``cols`` (columns are independent dynamic
    programs), so disjoint destination shards reassemble the full
    matrices by plain column scatter — the shard-merge rule of the
    engine's ``reachability`` measure.

    Diagonal entries (``cols[j] == u``) are accumulated like any other
    and must be masked by the consumer (the measure zeroes them, per the
    paper's pairs-of-distinct-nodes convention).
    """

    __slots__ = (
        "num_nodes",
        "num_steps",
        "cols",
        "reach_steps",
        "dist_sum",
        "hops_sum",
        "_A",
        "_H",
        "_row_hi",
    )

    def __init__(self) -> None:
        self.num_nodes = 0
        self.num_steps = 0
        self.cols: np.ndarray | None = None
        self.reach_steps: np.ndarray | None = None
        self.dist_sum: np.ndarray | None = None
        self.hops_sum: np.ndarray | None = None
        self._A: np.ndarray | None = None
        self._H: np.ndarray | None = None
        self._row_hi: np.ndarray | None = None

    def begin(
        self, num_nodes: int, num_steps: int, cols: np.ndarray | None
    ) -> None:
        """Allocate state for a scan of ``num_nodes`` rows over the
        destination columns ``cols`` (``None`` = the full node set)."""
        self.num_nodes = int(num_nodes)
        self.num_steps = int(num_steps)
        self.cols = (
            np.arange(num_nodes, dtype=np.int64)
            if cols is None
            else np.asarray(cols, dtype=np.int64)
        )
        width = self.cols.size
        self.reach_steps = np.zeros((num_nodes, width), dtype=np.int64)
        self.dist_sum = np.zeros((num_nodes, width), dtype=np.int64)
        self.hops_sum = np.zeros((num_nodes, width), dtype=np.int64)
        self._A = np.full((num_nodes, width), INT_INF, dtype=np.int64)
        self._H = np.full((num_nodes, width), HOP_INF, dtype=np.int64)
        #: Highest departure step whose contribution for the row's
        #: *current* values is still pending.  The initial all-infinite
        #: rows contribute nothing, so starting at the last step is safe.
        self._row_hi = np.full(num_nodes, num_steps - 1, dtype=np.int64)

    def _fold_row(
        self,
        source: int,
        A_row: np.ndarray,
        H_row: np.ndarray,
        t_low: int,
        t_high: int,
    ) -> None:
        """Fold one row's constant values over departures ``[t_low, t_high]``."""
        if t_high < t_low:
            return
        finite = A_row < INT_INF
        if not finite.any():
            return
        run_len = t_high - t_low + 1
        t_total = (t_low + t_high) * run_len // 2
        self.reach_steps[source, finite] += run_len
        self.dist_sum[source, finite] += run_len * (A_row[finite] + 1) - t_total
        self.hops_sum[source, finite] += run_len * H_row[finite]

    def observe_row(
        self,
        source: int,
        step: int,
        old_A: np.ndarray,
        old_H: np.ndarray,
        new_A: np.ndarray,
        new_H: np.ndarray,
        self_col: int,
    ) -> None:
        """Fold the outgoing row values, then mirror the update.

        The row's old values were the reachability picture for every
        departure step in ``(step, row_hi]`` — no lower window has
        touched the row in between.
        """
        k = int(step)
        self._fold_row(source, old_A, old_H, k + 1, int(self._row_hi[source]))
        self._A[source] = new_A
        self._H[source] = new_H
        self._row_hi[source] = k

    def observe_rows(
        self,
        sources: np.ndarray,
        step: int,
        old_P: np.ndarray,
        new_P: np.ndarray,
        K: int,
        a_inf: int,
        self_cols: np.ndarray,
    ) -> None:
        """Vectorized :meth:`observe_row` over one batch of packed rows.

        Takes the scan's packed rows (see
        :meth:`DistanceTotals.observe_rows`), folds every row's outgoing
        values over its pending departure run ``[step + 1, row_hi]`` in
        one closed-form pass (all integer arithmetic, so bit-identical
        to per-row folding), then mirrors the whole batch unpacked.
        ``sources`` are unique within a window by construction, so the
        fancy-indexed ``+=`` never collides.
        """
        k = int(step)
        t_hi = self._row_hi[sources]
        run_len = t_hi - k  # run [k + 1, t_hi] has t_hi - k >= 0 steps
        t_total = (k + 1 + t_hi) * run_len // 2
        # Fold in the keys' own dtype: arrivals of infinite cells unpack
        # to a_inf, which the zero weight masks out without overflow.
        old_A = old_P // K
        finite = old_A < a_inf
        weight = finite * run_len[:, None]
        self.reach_steps[sources] += weight
        self.dist_sum[sources] += weight * (old_A + 1) - finite * t_total[
            :, None
        ]
        self.hops_sum[sources] += weight * (old_P - old_A * K)
        self._A[sources], self._H[sources] = _unpack_rows(new_P, K, a_inf)
        self._row_hi[sources] = k

    def close_run(self, t_low: int, t_high: int) -> None:
        """No-op: folding happens row-wise (see the class docstring)."""

    def finish(self) -> None:
        """Fold every row's final values over the remaining departures
        ``[0, row_hi]`` (called once by the scan, after the last window).

        The mirrored scan state is dead afterwards and is released —
        shard accumulators land in the sweep cache, which should carry
        the three result matrices, not two garbage state copies too.
        """
        if self._A is None:
            return
        for source in range(self.num_nodes):
            self._fold_row(
                source,
                self._A[source],
                self._H[source],
                0,
                int(self._row_hi[source]),
            )
        self._A = None
        self._H = None
        self._row_hi = None

    def segment_handoff(self) -> "EarliestArrivalAccumulator":
        """Freeze this accumulator as a scan segment; return its successor.

        The checkpoint contract of incremental scan resume: the
        successor takes over the *live* mirrored scan state (``_A``/
        ``_H``/``_row_hi`` — including each row's pending departure-run
        obligation) with fresh zero contribution matrices, while
        ``self`` keeps exactly the contributions folded so far: one
        window span, splicable via :meth:`absorb_segment`.  ``self`` is
        sealed (state dropped without folding — its pending runs moved
        to the successor) just like :meth:`finish` leaves a completed
        accumulator.
        """
        live = EarliestArrivalAccumulator()
        live.num_nodes = self.num_nodes
        live.num_steps = self.num_steps
        live.cols = self.cols
        live.reach_steps = np.zeros_like(self.reach_steps)
        live.dist_sum = np.zeros_like(self.dist_sum)
        live.hops_sum = np.zeros_like(self.hops_sum)
        live._A = self._A
        live._H = self._H
        live._row_hi = self._row_hi
        self._A = None
        self._H = None
        self._row_hi = None
        return live

    def absorb_segment(
        self, other: "EarliestArrivalAccumulator"
    ) -> "EarliestArrivalAccumulator":
        """Add a cached span's contribution matrices (in-place; returns
        ``self``).  Both sides must cover the same destination columns.
        Reads but never mutates ``other``, so cached segments survive
        any number of splices."""
        if not isinstance(other, EarliestArrivalAccumulator):
            raise ValidationError(
                "cannot splice EarliestArrivalAccumulator with "
                f"{type(other).__name__}"
            )
        if self.cols is None or other.cols is None or not np.array_equal(
            self.cols, other.cols
        ):
            raise ValidationError(
                "cannot splice reachability segments over different "
                "destination columns"
            )
        self.reach_steps += other.reach_steps
        self.dist_sum += other.dist_sum
        self.hops_sum += other.hops_sum
        return self


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a backward scan."""

    num_trips: int
    num_steps: int


#: Default byte budget for one scan's checkpointed state copies
#: (overridable via ``REPRO_CHECKPOINT_MAX_BYTES``).  When a scan's
#: planned checkpoints would exceed it, later (deeper) captures are
#: skipped — keeping the near-end checkpoints, which are the ones a
#: future append actually settles against.
CHECKPOINT_MAX_BYTES = 256 * 1024 * 1024


def _checkpoint_max_bytes() -> int:
    """The checkpoint byte budget, env-overridable."""
    override = os.environ.get("REPRO_CHECKPOINT_MAX_BYTES", "")
    if override:
        try:
            budget = int(override)
        except ValueError:
            raise ValidationError(
                "REPRO_CHECKPOINT_MAX_BYTES must be an integer, got "
                f"{override!r}"
            ) from None
        if budget < 0:
            raise ValidationError(
                f"REPRO_CHECKPOINT_MAX_BYTES must be non-negative, got {budget}"
            )
        return budget
    return CHECKPOINT_MAX_BYTES


class ScanCheckpoint:
    """One frozen window-boundary state of a backward scan.

    Captured at the *top* of the scan iteration for ``window`` — before
    that iteration's departure-run close and before the window's hops
    apply — so it is the exact incoming state a later scan reaches when
    it arrives at the same window.  ``last_processed`` is the previous
    (higher) nonempty window already applied; a resumed scan may only
    settle here when its own previous window matches, otherwise the
    pending departure run differs.  The state is stored as one read-only
    matrix ``P`` of packed keys ``A * K + H`` in the scan's key dtype
    (:func:`_key_dtype`), infinite cells at ``a_inf * K + (K - 1)``,
    whichever path ran each window.  ``K`` and ``a_inf`` follow the
    series length, which an append changes: a resumed scan with the same
    ``K`` compares keys directly, and one whose ``K`` grew compares the
    unpacked ``(A, H)`` of both sides.
    """

    __slots__ = ("window", "last_processed", "P", "K", "a_inf")

    def __init__(
        self, window: int, last_processed: int, P: np.ndarray, K: int, a_inf: int
    ) -> None:
        P.setflags(write=False)
        self.window = int(window)
        self.last_processed = int(last_processed)
        self.P = P
        self.K = int(K)
        self.a_inf = int(a_inf)

    @property
    def nbytes(self) -> int:
        return int(self.P.nbytes)


class CheckpointRecorder:
    """Collects bounded checkpoints and consumer spans during one scan.

    Pass one to :func:`scan_series` (``checkpoints=``) to capture resume
    state: at selected window boundaries the scan snapshots its state as
    a :class:`ScanCheckpoint` and hands every consumer off to a fresh
    successor (``segment_handoff``), so ``spans[i]`` ends up holding
    exactly the consumers' contributions from ``checkpoints[i]``'s
    window down to the next boundary (the last span runs to the end of
    the scan, terminal folds included).  ``span_trips[i]`` counts the
    trips recorded in that span.  Consumers live *before* the first
    checkpoint (the caller's own objects) are never stored — they become
    the assembled result.

    Capture points are chosen by iteration index from the scan's start
    (descending windows, so early iterations sit near the stream's end —
    where future appends settle): every power of two, plus every
    multiple of a stride ≈ √(nonempty windows), subject to the byte
    budget.
    """

    def __init__(self, *, max_bytes: int | None = None) -> None:
        self.checkpoints: list[ScanCheckpoint] = []
        self.spans: list[tuple] = []
        self.span_trips: list[int] = []
        self._max_bytes = (
            _checkpoint_max_bytes() if max_bytes is None else int(max_bytes)
        )
        self._bytes = 0
        self._stride = 1

    def begin(self, num_windows: int) -> None:
        """Size the capture stride for a scan of ``num_windows`` nonempty
        windows (keeps the checkpoint count near ``O(√num_windows)``)."""
        self._stride = max(int(np.sqrt(max(num_windows, 1))), 1)

    def wants(self, iteration: int, nbytes: int) -> bool:
        """Whether the scan should capture its ``nbytes`` state before
        iteration ``iteration`` (0-based from the scan's start; the
        incoming state of iteration 0 is all-infinite and never worth
        storing).  ``False`` once the byte budget cannot take the state,
        so the scan never copies or packs a state it would discard."""
        if iteration < 1 or self._bytes + nbytes > self._max_bytes:
            return False
        if iteration & (iteration - 1) == 0:
            return True
        return iteration % self._stride == 0

    def capture(self, checkpoint: ScanCheckpoint) -> None:
        """Store one checkpoint the scan was told it :meth:`wants`."""
        self.checkpoints.append(checkpoint)
        self._bytes += checkpoint.nbytes

    def store_span(self, consumers, trips: int) -> None:
        """Record one completed span's frozen consumers and trip count."""
        self.spans.append(tuple(consumers))
        self.span_trips.append(int(trips))

    def adopt_tail(
        self,
        checkpoints: Sequence[ScanCheckpoint],
        spans: Sequence[tuple],
        span_trips: Sequence[int],
    ) -> None:
        """Append a settled scan's reused tail (shared, immutable refs
        from the previous record) so the new record stays complete."""
        self.checkpoints.extend(checkpoints)
        self.spans.extend(spans)
        self.span_trips.extend(span_trips)
        self._bytes += sum(c.nbytes for c in checkpoints)

    @property
    def nbytes(self) -> int:
        """Bytes held by the recorded checkpoint states."""
        return self._bytes


class ResumePlan:
    """Cached checkpoints a resumed scan may settle against.

    Built from a previous scan's record over a *prefix* of the current
    series: only checkpoints strictly below ``limit`` (the straddle
    window — the first window any appended event touches) are
    candidates, since above it the two series differ.  Checkpoint
    windows descend in capture order, so the eligible ones are a
    contiguous tail slice, keeping span alignment intact.
    """

    def __init__(
        self,
        checkpoints: Sequence[ScanCheckpoint],
        spans: Sequence[tuple],
        span_trips: Sequence[int],
        *,
        limit: int,
    ) -> None:
        if not len(checkpoints) == len(spans) == len(span_trips):
            raise ValidationError(
                "resume plan needs one span and trip count per checkpoint"
            )
        first = len(checkpoints)
        for i, ckpt in enumerate(checkpoints):
            if ckpt.window < limit:
                first = i
                break
        self._checkpoints = list(checkpoints[first:])
        self._spans = list(spans[first:])
        self._span_trips = [int(t) for t in span_trips[first:]]
        self._by_window = {
            ckpt.window: i for i, ckpt in enumerate(self._checkpoints)
        }

    def __len__(self) -> int:
        return len(self._checkpoints)

    def candidate(self, window: int) -> tuple[int, ScanCheckpoint] | None:
        """The eligible checkpoint at ``window`` (with its index), if any."""
        index = self._by_window.get(int(window))
        if index is None:
            return None
        return index, self._checkpoints[index]

    def tail(
        self, index: int
    ) -> tuple[list[ScanCheckpoint], list[tuple], list[int]]:
        """Everything from checkpoint ``index`` down: the reusable tail."""
        return (
            self._checkpoints[index:],
            self._spans[index:],
            self._span_trips[index:],
        )


def _absorb_span(original, part) -> None:
    """Fold one cached span consumer into the caller's consumer.

    Accumulators splice via ``absorb_segment`` (contributions only);
    trip collectors via their shard ``merge``, which reads but never
    mutates the absorbed side — both leave the cached segment pristine.
    """
    absorb = getattr(original, "absorb_segment", None)
    if absorb is not None:
        absorb(part)
    else:
        original.merge(part)


def _require_segment_support(items) -> None:
    """Checkpointing/resume demands the handoff contract of every consumer."""
    for item in items:
        if not hasattr(item, "segment_handoff"):
            raise ValidationError(
                f"{type(item).__name__} does not support segment_handoff; "
                "checkpointed scans need every consumer to implement the "
                "checkpoint contract"
            )


def _split_consumers(collector) -> tuple[list, list]:
    """Normalize the ``collector`` argument into (trip collectors,
    state accumulators).

    Accepts ``None``, a single consumer, or a sequence of consumers.
    Trip collectors implement ``record`` (the
    :class:`~repro.temporal.collectors.TripCollector` protocol); state
    accumulators implement ``observe_row`` (:class:`DistanceTotals`).
    """
    if collector is None:
        return [], []
    items = (
        list(collector)
        if isinstance(collector, (list, tuple))
        else [collector]
    )
    trip_collectors: list = []
    accumulators: list = []
    for item in items:
        if hasattr(item, "observe_row"):
            accumulators.append(item)
        elif hasattr(item, "record"):
            trip_collectors.append(item)
        else:
            raise ValidationError(
                f"{type(item).__name__} is neither a trip collector "
                "(record) nor a state accumulator (observe_row)"
            )
    return trip_collectors, accumulators


def _expand_undirected(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn undirected edges into both directed hops."""
    return np.concatenate([u, v]), np.concatenate([v, u])


def _process_group(
    A: np.ndarray,
    H: np.ndarray,
    time_value,
    us: np.ndarray,
    vs: np.ndarray,
    collectors: list,
    include_self: bool,
    duration_extra,
    accumulators: list,
    col_of: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> int:
    """Apply one window's hops to the state; returns trips recorded.

    The **row loop**: one Python iteration per source row over unpacked
    ``(A, H)`` state.  It runs :func:`scan_stream` (float timestamps
    cannot be packed) and the rare :func:`scan_series` whose packed keys
    would overflow int64 (:func:`_scan_rows`); the tests use it as the
    oracle for the packed paths.

    ``us``/``vs`` are directed hops (already expanded for undirected
    input), deduplicated within the group.  All continuation reads come
    from a pre-window stash so intra-window updates never chain.  Every
    trip collector receives every batch; every accumulator sees every
    row update.

    When the scan is restricted to a destination subset, ``cols`` holds
    the selected node ids (the state's column order) and ``col_of`` maps
    node id -> column position (-1 for excluded nodes); both are ``None``
    for a full scan.
    """
    order = np.argsort(us, kind="stable")
    us = us[order]
    vs = vs[order]
    sources, starts = np.unique(us, return_index=True)
    ends = np.append(starts[1:], us.size)
    involved = np.unique(np.concatenate([sources, vs]))
    stash_A = A[involved].copy()
    stash_H = H[involved].copy()
    trips_recorded = 0
    SCAN_COUNTS["windows"] += 1

    for i in range(sources.size):
        u = int(sources[i])
        targets = vs[starts[i] : ends[i]]
        w_pos = np.searchsorted(involved, targets)
        cont_A = stash_A[w_pos]
        cont_H = stash_H[w_pos]
        if targets.size == 1:
            arr = cont_A[0].copy()
            hop = cont_H[0] + 1
        else:
            arr = cont_A.min(axis=0)
            hop = np.where(cont_A == arr[None, :], cont_H, HOP_INF).min(axis=0) + 1
        # A direct hop arrives at the current window itself, always earlier
        # than any continuation (which departs at the *next* window).
        if col_of is None:
            arr[targets] = time_value
            hop[targets] = 1
        else:
            tpos = col_of[targets]
            tpos = tpos[tpos >= 0]
            arr[tpos] = time_value
            hop[tpos] = 1

        u_pos = int(np.searchsorted(involved, u))
        old_A = stash_A[u_pos]
        old_H = stash_H[u_pos]
        improved = arr < old_A
        tie_better = (~improved) & (arr == old_A) & (hop < old_H)
        new_A = np.where(improved, arr, old_A)
        new_H = np.where(improved | tie_better, hop, old_H)
        A[u] = new_A
        H[u] = new_H

        if accumulators:
            self_col = u if col_of is None else int(col_of[u])
            for accumulator in accumulators:
                accumulator.observe_row(
                    u, time_value, old_A, old_H, new_A, new_H, self_col
                )

        record = improved.copy()
        if not include_self:
            if col_of is None:
                record[u] = False
            else:
                u_col = col_of[u]
                if u_col >= 0:
                    record[u_col] = False
        chosen = np.nonzero(record)[0]
        trips_recorded += chosen.size
        if collectors and chosen.size:
            arrivals = new_A[chosen]
            node_targets = chosen if cols is None else cols[chosen]
            hops = new_H[chosen]
            durations = arrivals - time_value + duration_extra
            for collector in collectors:
                collector.record(
                    u, time_value, node_targets, arrivals, hops, durations
                )
    return trips_recorded


def _chunk_bounds(seg_sizes: np.ndarray, max_rows: int) -> np.ndarray:
    """Greedy chunking of source segments: as many whole segments per
    chunk as fit ``max_rows`` hop rows (always at least one).

    Returns the chunk boundaries as indices into the segment list
    (length ``num_chunks + 1``, starting 0, ending ``seg_sizes.size``).
    """
    cum = np.cumsum(seg_sizes)
    bounds = [0]
    while bounds[-1] < seg_sizes.size:
        lo = bounds[-1]
        base = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, base + max_rows, side="right"))
        bounds.append(max(hi, lo + 1))
    return np.asarray(bounds, dtype=np.int64)


def _key_dtype(a_inf: int, K: int) -> np.dtype | None:
    """The narrowest signed integer dtype holding every packed key of a
    scan with caps ``a_inf`` and ``K``, or ``None`` when even int64
    cannot.

    The largest key a scan forms is the incremented infinity sentinel
    ``(a_inf + 1) * K`` (see :func:`_process_group_batched`); every other
    intermediate — stash gathers, arrival floors, direct-hop keys — stays
    below it.  One dtype serves the live state and every checkpoint of
    the scan, whichever path runs each window.
    """
    top = (a_inf + 1) * K
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return None


def _unpack_rows(
    P_rows: np.ndarray, K: int, a_inf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unpack packed-key rows (any integer dtype) back into int64
    ``(A, H)`` with the sentinels restored.  Committed infinite cells
    are always the canonical ``a_inf * K + (K - 1)`` (never the
    incremented ``(a_inf + 1) * K`` candidate form, which loses every
    lexicographic minimum against it), so the fixup mask is exactly
    ``A == a_inf``.
    """
    # Divide in the keys' own dtype (numpy's fast scalar-divisor path),
    # then widen: both components fit whatever the key dtype.
    A = P_rows // K
    H = (P_rows - A * K).astype(np.int64, copy=False)
    infinite = A == a_inf
    A = A.astype(np.int64, copy=False)
    A[infinite] = INT_INF
    H[infinite] = HOP_INF
    return A, H


def _sparse_windows(series: GraphSeries) -> np.ndarray:
    """Per nonempty window (ascending), whether every directed source of
    the window holds exactly one hop — the windows
    :func:`_process_group_sparse` applies.

    Directed rows are lexsorted by ``(step, u, v)``, so a repeated source
    sits next to itself.  An undirected link makes both endpoints
    sources, so its window qualifies when all endpoints are distinct (a
    matching); only windows of at most ``n / 2`` links can be one, so
    only their rows are sorted.  Keeps nothing but the per-window flags.
    """
    step = series.edge_steps
    windows = series.nonempty_steps()
    if series.directed:
        sparse = np.ones(windows.size, dtype=bool)
        ends = series.edge_sources
    else:
        sizes = np.diff(np.append(np.searchsorted(step, windows), step.size))
        sparse = sizes <= series.num_nodes // 2
        small = np.repeat(sparse, sizes)
        step = np.concatenate([step[small], step[small]])
        ends = np.concatenate(
            [series.edge_sources[small], series.edge_targets[small]]
        )
        order = np.lexsort((ends, step))
        step = step[order]
        ends = ends[order]
    repeated = (step[1:] == step[:-1]) & (ends[1:] == ends[:-1])
    sparse[np.searchsorted(windows, step[1:][repeated])] = False
    return sparse


def _feed_accumulators(
    accumulators: list,
    sources: np.ndarray,
    time_value: int,
    old_P: np.ndarray,
    new_P: np.ndarray,
    K: int,
    a_inf: int,
    self_cols: np.ndarray,
) -> None:
    """Hand one window's packed row updates to every accumulator.

    ``observe_rows`` gets the packed rows; accumulators that only define
    ``observe_row`` get the per-row adapter, fed unpacked rows in the row
    loop's order (``sources`` ascending).
    """
    unpacked = None
    for accumulator in accumulators:
        observe_rows = getattr(accumulator, "observe_rows", None)
        if observe_rows is not None:
            observe_rows(
                sources, time_value, old_P, new_P, K, a_inf, self_cols
            )
            continue
        if unpacked is None:
            unpacked = (
                *_unpack_rows(old_P, K, a_inf),
                *_unpack_rows(new_P, K, a_inf),
            )
        old_A, old_H, new_A, new_H = unpacked
        for i in range(sources.size):
            accumulator.observe_row(
                int(sources[i]), time_value, old_A[i], old_H[i], new_A[i],
                new_H[i], int(self_cols[i]),
            )


def _emit_trips(
    collectors: list,
    sources: np.ndarray,
    deps: np.ndarray,
    targets: np.ndarray,
    cells: np.ndarray,
    K: int,
) -> None:
    """Feed one batch of trips to every collector.

    ``cells`` are the trips' committed packed keys.  Recorded cells
    improved, hence are finite, so they unpack without sentinel fixup.
    Collectors see int64 arrays whatever the key dtype, with ``deps``
    parallel to ``targets``; ``record``-only collectors go through
    :func:`~repro.temporal.collectors.record_batch_fallback`.
    """
    from repro.temporal.collectors import record_batch_fallback

    cells = cells.astype(np.int64)
    arrivals = cells // K
    hops = cells - arrivals * K
    durations = arrivals - deps + 1
    for collector in collectors:
        record_batch = getattr(collector, "record_batch", None)
        if record_batch is not None:
            record_batch(sources, deps, targets, arrivals, hops, durations)
        else:
            record_batch_fallback(
                collector, sources, deps, targets, arrivals, hops, durations
            )


class _TripFeed:
    """Trips of a run of sparse windows, buffered into one collector
    batch.

    Windows are added in scan order (descending), each with its trips
    sorted by source, then destination, so the flushed batch is in the
    row loop's emission order.  :func:`scan_series` flushes before every
    batched window, checkpoint capture and consumer handoff, at the end
    of the scan (settled or not), and once :data:`FEED_MAX_ROWS` trips
    are waiting.
    """

    __slots__ = ("K", "rows", "_steps", "_counts", "_sources", "_targets",
                 "_cells")

    def __init__(self, K: int) -> None:
        self.K = K
        self._reset()

    def _reset(self) -> None:
        self.rows = 0
        self._steps: list[int] = []
        self._counts: list[int] = []
        self._sources: list[np.ndarray] = []
        self._targets: list[np.ndarray] = []
        self._cells: list[np.ndarray] = []

    def add(
        self,
        step: int,
        sources: np.ndarray,
        targets: np.ndarray,
        cells: np.ndarray,
    ) -> None:
        self.rows += sources.size
        self._steps.append(step)
        self._counts.append(sources.size)
        self._sources.append(sources)
        self._targets.append(targets)
        self._cells.append(cells)

    def flush(self, collectors: list) -> None:
        if not self.rows:
            return
        sources = np.concatenate(self._sources)
        targets = np.concatenate(self._targets)
        cells = np.concatenate(self._cells)
        deps = np.repeat(
            np.asarray(self._steps, dtype=np.int64), self._counts
        )
        self._reset()
        _emit_trips(collectors, sources, deps, targets, cells, self.K)


def _process_group_sparse(
    P: np.ndarray,
    K: int,
    a_inf: int,
    time_value: int,
    us: np.ndarray,
    vs: np.ndarray,
    feed: _TripFeed | None,
    include_self: bool,
    accumulators: list,
    col_of: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> int:
    """Apply one window in which every source holds exactly one hop;
    returns trips recorded.  Bit-identical to :func:`_process_group`.

    The sparse path of :func:`scan_series`, for the fine end of a Δ
    sweep where a window holds about one link.  With one hop per source
    the batched kernel's segment minimum is the hop's continuation row
    itself, so the window is a handful of whole-array operations on the
    packed state: gather the rows ``P[vs]`` (a copy, so every
    continuation reads the pre-window state), add one hop, scatter the
    direct hops, compare against the old keys' arrival floor, and commit
    the minimum: no ``unique``, ``searchsorted``, stash or size
    buckets.  ``us`` must be ascending (the row loop's source order).

    Trips go to ``feed`` (``None`` when the scan has no trip collector)
    instead of straight to the collectors, so a run of sparse windows
    costs one collector call; accumulators are fed per window.
    """
    SCAN_COUNTS["windows"] += 1
    rows = np.arange(us.size)
    cand = P[vs]
    cand += 1
    direct = time_value * K + 1
    if col_of is None:
        cand[rows, vs] = direct
        self_cols = us
    else:
        tpos = col_of[vs]
        keep = tpos >= 0
        cand[rows[keep], tpos[keep]] = direct
        self_cols = col_of[us]
    old_P = P[us]
    floor = old_P // K
    floor *= K
    improved = cand < floor
    new_P = np.minimum(cand, old_P, out=cand)
    P[us] = new_P
    if accumulators:
        _feed_accumulators(
            accumulators, us, time_value, old_P, new_P, K, a_inf, self_cols
        )
    if not include_self:
        if col_of is None:
            improved[rows, us] = False
        else:
            diag = self_cols >= 0
            improved[rows[diag], self_cols[diag]] = False
    if feed is None:
        return int(np.count_nonzero(improved))
    row_idx, col_idx = improved.nonzero()
    if row_idx.size:
        feed.add(
            time_value,
            us[row_idx],
            col_idx if cols is None else cols[col_idx],
            new_P[row_idx, col_idx],
        )
    return row_idx.size


def _process_group_batched(
    P: np.ndarray,
    K: int,
    a_inf: int,
    time_value: int,
    us: np.ndarray,
    vs: np.ndarray,
    collectors: list,
    include_self: bool,
    accumulators: list,
    col_of: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> int:
    """Apply one window's hops to the packed state; returns trips
    recorded.  Bit-identical to :func:`_process_group`.

    ``P`` is the scan state with each ``(arrival, hop)`` pair packed
    into a single lexicographic integer key ``A * K + H`` — ``K`` above
    every finite hop the scan can produce, ``a_inf`` above every window
    index, infinite cells at the ``a_inf * K + (K - 1)`` sentinel — in
    the narrowest dtype holding every key (:func:`_key_dtype`).  The
    state stays packed across the whole scan (:func:`scan_series` picks
    the caps analytically), so a window costs one stash gather and one
    commit write instead of separate arrival/hop passes, and the stash
    and candidate matrices share the state's dtype.

    Within a window, every source-row update is independent: all
    continuation reads come from the pre-window stash, never from
    intra-window writes.  So instead of looping sources in Python, the
    kernel sorts the hops by source once, takes every segment minimum of
    the packed keys in one pass — arrival first, hop tie-break for free
    — scatters every direct-hop arrival at once, and commits all updated
    source rows with a single fancy-indexed write.  The segment minima
    themselves use size-bucketed padded gathers reduced along the pad
    axis (a ``np.minimum.reduceat``-style segment reduction, but
    vectorizable: reduceat's scalar inner loop is several times slower
    per cell); padding repeats each segment's first row, which is
    idempotent under ``min``.  Trip collectors are fed one flattened
    batch per chunk (:func:`_emit_trips`) and accumulators the chunk's
    packed old/new row matrices (:func:`_feed_accumulators`).

    The staged working set — up to ``(hops × width)`` continuation cells,
    inflated at most 50% by pad rows — is chunked over whole sources
    (:func:`_chunk_bounds`) so a dense window on a wide state never
    materializes much more than the cell budget at once.  Chunking
    cannot change results: chunks hold whole sources, and sources are
    independent.
    """
    order = np.argsort(us, kind="stable")
    us = us[order]
    vs = vs[order]
    sources, starts = np.unique(us, return_index=True)
    ends = np.append(starts[1:], us.size)
    involved = np.unique(np.concatenate([sources, vs]))
    # Fancy indexing already copies: this is the pre-window stash.
    stash_P = P[involved]
    width = P.shape[1]

    seg_sizes = ends - starts
    max_rows = max(BATCH_CELL_BUDGET // max(width, 1), 1)
    bounds = _chunk_bounds(seg_sizes, max_rows)
    w_pos = np.searchsorted(involved, vs)
    trips_recorded = 0
    SCAN_COUNTS["windows"] += 1

    for lo, hi in zip(bounds[:-1], bounds[1:]):
        row_lo = starts[lo]
        row_hi = ends[hi - 1]
        chunk_vs = vs[row_lo:row_hi]
        chunk_sources = sources[lo:hi]
        chunk_w_pos = w_pos[row_lo:row_hi]
        rel_starts = starts[lo:hi] - row_lo
        sizes = seg_sizes[lo:hi]
        nseg = hi - lo
        # Segment minima of the packed keys: bucket segments by size
        # class (1, 2, 3, 4, 6, 9, ... — a 1.5x progression bounds pad
        # waste at 50%), gather each bucket padded to its class width —
        # repeating the first row, min-idempotent — and reduce along the
        # pad axis in one vectorized sweep per bucket.
        P_cand = np.empty((nseg, width), dtype=P.dtype)
        pending = np.ones(nseg, dtype=bool)
        k = 1
        while pending.any():
            sel = np.flatnonzero(pending & (sizes <= k))
            if sel.size:
                if k == 1:
                    P_cand[sel] = stash_P[chunk_w_pos[rel_starts[sel]]]
                else:
                    pad = np.minimum(
                        np.arange(k, dtype=np.int64), sizes[sel][:, None] - 1
                    )
                    rows_idx = rel_starts[sel][:, None] + pad
                    P_cand[sel] = stash_P[chunk_w_pos[rows_idx]].min(axis=1)
                pending[sel] = False
            k = k + 1 if k < 4 else k * 3 // 2
        # The continuation costs one more hop: with H < K packed in the
        # low digit, + 1 increments the hop component alone.  All-
        # infinite segments carry (a_inf * K + K - 1) + 1 = (a_inf + 1)
        # * K, which still sorts above every real candidate and the
        # stashed infinity — exactly the row loop's never-committed
        # HOP_INF + 1.
        P_cand += 1
        # A direct hop arrives at the current window itself, always
        # earlier than any continuation (which departs at the *next*
        # window).  (source, target) pairs are unique within a window,
        # so the scatter never collides.
        seg_ids = np.repeat(np.arange(nseg, dtype=np.int64), sizes)
        direct = time_value * K + 1
        if col_of is None:
            P_cand[seg_ids, chunk_vs] = direct
        else:
            tpos = col_of[chunk_vs]
            keep = tpos >= 0
            P_cand[seg_ids[keep], tpos[keep]] = direct

        # Compare and commit entirely in key space: `candidate < floor`
        # (floor = the old keys' arrival component alone) is the row loop's
        # `arr < old_A` — strict arrival improvement, the trip-record
        # condition, independent of either hop count — and the
        # lexicographic minimum with the old keys is the row loop's
        # improved/tie-better selection: a tie on arrival resolves to
        # the smaller hop via the low digit.
        u_pos = np.searchsorted(involved, chunk_sources)
        old_P = stash_P[u_pos]
        old_floor = old_P // K
        old_floor *= K
        improved = P_cand < old_floor
        new_P = np.minimum(P_cand, old_P, out=P_cand)
        P[chunk_sources] = new_P

        if col_of is None:
            self_cols = chunk_sources
        else:
            self_cols = col_of[chunk_sources]
        if accumulators:
            _feed_accumulators(
                accumulators, chunk_sources, time_value, old_P, new_P, K,
                a_inf, self_cols,
            )

        record = improved  # dead after the commit: safe to mutate
        if not include_self:
            diag_rows = np.flatnonzero(self_cols >= 0)
            if diag_rows.size:
                record[diag_rows, self_cols[diag_rows]] = False
        # C-order nonzero: rows ascending, columns ascending within a
        # row — exactly the row loop's source-by-source emission order.
        row_idx, col_idx = np.nonzero(record)
        trips_recorded += row_idx.size
        if collectors and row_idx.size:
            _emit_trips(
                collectors,
                chunk_sources[row_idx],
                np.full(row_idx.size, time_value, dtype=np.int64),
                col_idx if cols is None else cols[col_idx],
                new_P[row_idx, col_idx],
                K,
            )
    return trips_recorded


def _target_columns(
    targets, num_nodes: int
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Validate a destination restriction; returns ``(cols, col_of, width)``.

    ``cols`` is the sorted, deduplicated node-id subset (the state's
    column order), ``col_of`` the node-id -> column-position map (-1 for
    excluded nodes).  ``targets=None`` means the full node set, encoded
    as ``(None, None, num_nodes)`` so the unrestricted scan pays nothing.
    """
    if targets is None:
        return None, None, num_nodes
    cols = np.unique(np.asarray(targets, dtype=np.int64))
    if not cols.size:
        raise ValidationError("target restriction must name at least one node")
    if cols[0] < 0 or cols[-1] >= num_nodes:
        raise ValidationError(
            f"target node indices must lie in [0, {num_nodes}), "
            f"got range [{cols[0]}, {cols[-1]}]"
        )
    col_of = np.full(num_nodes, -1, dtype=np.int64)
    col_of[cols] = np.arange(cols.size, dtype=np.int64)
    return cols, col_of, int(cols.size)


def scan_series(
    series: GraphSeries,
    collector=None,
    *,
    include_self: bool = False,
    targets: np.ndarray | None = None,
    checkpoints: CheckpointRecorder | None = None,
    resume: ResumePlan | None = None,
) -> ScanResult:
    """Run the backward scan over a graph series.

    Parameters
    ----------
    series:
        The aggregated series ``G_Δ``.
    collector:
        One consumer, a sequence of consumers, or ``None`` to only count
        trips.  Trip collectors (``record``) receive every minimal trip
        found (durations in window counts, ``arr - dep + 1``); state
        accumulators (``observe_row`` — e.g. :class:`DistanceTotals` for
        the classical distance statistics) watch the arrival-matrix rows
        themselves.  All consumers are fed from this **single** backward
        pass — the primitive behind the engine's fused measure pipeline.
    include_self:
        Whether to report cyclic trips ``u -> ... -> u`` (the paper
        considers pairs of distinct nodes; off by default).  Applies to
        every trip collector of the set; distance accumulators always
        exclude the diagonal, per the definition.
    targets:
        Optional node-id subset restricting the scan to minimal trips
        *arriving* in the subset.  The arrival-matrix columns are
        independent dynamic programs (see the module docstring), so the
        restricted scan does proportionally less work and feeds every
        consumer exactly the full scan's contributions for destinations
        in ``targets`` — the primitive behind within-Δ sharding.  A
        restricted :class:`DistanceTotals` holds partial sums; merge the
        shards before calling :meth:`~DistanceTotals.stats`.
    checkpoints:
        Optional :class:`CheckpointRecorder` capturing bounded scan-state
        snapshots plus per-span consumer contributions for later resume.
        Requires every consumer to implement ``segment_handoff``.
    resume:
        Optional :class:`ResumePlan` from a previous scan of a time
        prefix of this series.  The scan proceeds normally from the
        newest window; on reaching a cached checkpoint whose incoming
        state (and pending departure run) matches exactly — the
        **settled boundary** — it stops and splices every earlier
        window's cached contributions into the consumers instead of
        recomputing them.  The assembled consumers, the trip count, and
        any new record are bit-identical to a from-scratch scan: the
        backward DP's state at a boundary *is* its entire memory of the
        windows above it.

    Both options change only how much work is redone, never any result.
    Each window runs on the sparse path or the batched kernel (see the
    module docstring's *Scan kernels* section); neither choice changes
    any result either.
    """
    SCAN_COUNTS["series"] += 1
    n = series.num_nodes
    items = (
        []
        if collector is None
        else list(collector)
        if isinstance(collector, (list, tuple))
        else [collector]
    )
    originals = list(items)
    if checkpoints is not None or resume is not None:
        _require_segment_support(items)
    collectors, accumulators = _split_consumers(items)
    cols, col_of, width = _target_columns(targets, n)
    for accumulator in accumulators:
        # Geometry hook: per-pair accumulators allocate their state from
        # the scan's exact shape (row count, destination columns).
        begin = getattr(accumulator, "begin", None)
        if begin is not None:
            begin(n, series.num_steps, cols)
    # Analytic packing caps: arrivals and window indices are <
    # num_steps, and no minimal trip can take more than num_steps hops
    # (each hop departs one window later).  Both caps are scan-wide
    # constants, so the state stays packed for the whole scan, in the
    # narrowest dtype its keys fit.  Were the keys ever to overflow
    # int64 (num_steps near 2**31), the scan runs the row loop —
    # bit-identical by contract — and records and resumes nothing.
    a_inf = max(int(series.num_steps), 1)
    K = a_inf + 2
    key_dtype = _key_dtype(a_inf, K)
    if key_dtype is None:
        num_trips = _scan_rows(
            series, collectors, accumulators, include_self, col_of, cols
        )
        return ScanResult(num_trips=num_trips, num_steps=series.num_steps)
    P = np.full((n, width), a_inf * K + (K - 1), dtype=key_dtype)
    recorder = checkpoints
    if recorder is not None:
        recorder.begin(int(series.nonempty_steps().size))
    # Scan order is descending, the flags ascending.
    sparse = _sparse_windows(series)[::-1]
    feed = _TripFeed(K)

    def settles(ckpt: ScanCheckpoint) -> bool:
        # Whether the live state equals a checkpoint's: keys compare
        # directly under the same K, unpacked (A, H) across a grown K.
        if ckpt.K == K:
            return np.array_equal(P, ckpt.P)
        live_A, live_H = _unpack_rows(P, K, a_inf)
        ck_A, ck_H = _unpack_rows(ckpt.P, ckpt.K, ckpt.a_inf)
        return np.array_equal(live_A, ck_A) and np.array_equal(live_H, ck_H)

    num_trips = 0
    last_processed: int | None = None
    iteration = 0
    captures = 0
    span_trip_base = 0
    settled_index: int | None = None
    #: Consumer spans to fold into the caller's consumers at the end —
    #: frozen handoff spans from this scan, then (when settled) the
    #: reused cached tail, in scan order.
    assembly: list[tuple] = []

    for (step, u, v), is_sparse in zip(series.edge_groups(reverse=True), sparse):
        if resume is not None and last_processed is not None:
            found = resume.candidate(step)
            if (
                found is not None
                and found[1].last_processed == last_processed
                and settles(found[1])
            ):
                settled_index = found[0]
                break
        if recorder is not None and recorder.wants(iteration, P.nbytes):
            # last_processed is never None here: wants() skips iteration 0.
            # Buffered trips belong to the span that ends here.
            feed.flush(collectors)
            recorder.capture(
                ScanCheckpoint(step, last_processed, P.copy(), K, a_inf)
            )
            if captures:
                recorder.store_span(items, num_trips - span_trip_base)
                assembly.append(tuple(items))
            captures += 1
            span_trip_base = num_trips
            items = [item.segment_handoff() for item in items]
            collectors, accumulators = _split_consumers(items)
        if accumulators and last_processed is not None:
            # The current state (built from windows > step) is the exact
            # reachability picture for every departure step t in
            # [step + 1, last_processed]: no edges exist in between.
            for accumulator in accumulators:
                accumulator.close_run(step + 1, last_processed)
        if not series.directed:
            u, v = _expand_undirected(u, v)
        if is_sparse:
            if not series.directed:
                # Each source holds one hop: order the hops by source.
                order = np.argsort(u)
                u = u[order]
                v = v[order]
            num_trips += _process_group_sparse(
                P, K, a_inf, step, u, v, feed if collectors else None,
                include_self, accumulators, col_of, cols,
            )
            if feed.rows >= FEED_MAX_ROWS:
                feed.flush(collectors)
        else:
            feed.flush(collectors)
            num_trips += _process_group_batched(
                P, K, a_inf, step, u, v, collectors, include_self,
                accumulators, col_of, cols,
            )
        last_processed = step
        iteration += 1
    # The end of the scan, or its settled boundary.
    feed.flush(collectors)

    if settled_index is not None:
        # Settled: every window at and below the boundary is served from
        # cache.  One final handoff freezes the live consumers (sealing
        # the caller's objects when no capture happened yet — their scan
        # state moved to the discarded successor, exactly like finish
        # without re-folding runs the cached tail already covers).
        frozen = tuple(items)
        items = [item.segment_handoff() for item in items]
        if captures:
            if recorder is not None:
                recorder.store_span(frozen, num_trips - span_trip_base)
            assembly.append(frozen)
        tail_ckpts, tail_spans, tail_trips = resume.tail(settled_index)
        num_trips += sum(tail_trips)
        if recorder is not None:
            recorder.adopt_tail(tail_ckpts, tail_spans, tail_trips)
        assembly.extend(tail_spans)
    else:
        _finish_accumulators(accumulators, last_processed)
        if captures:
            if recorder is not None:
                recorder.store_span(items, num_trips - span_trip_base)
            assembly.append(tuple(items))

    for span in assembly:
        for original, part in zip(originals, span):
            _absorb_span(original, part)
    return ScanResult(num_trips=num_trips, num_steps=series.num_steps)


def _finish_accumulators(accumulators: list, last_processed: int | None) -> None:
    """Fold the departures at or below the earliest nonempty window (they
    all see the final state), then run every completion hook."""
    if last_processed is not None:
        for accumulator in accumulators:
            accumulator.close_run(0, last_processed)
    for accumulator in accumulators:
        # Row-wise accumulators fold their tails here.
        finish = getattr(accumulator, "finish", None)
        if finish is not None:
            finish()


def _scan_rows(
    series: GraphSeries,
    collectors: list,
    accumulators: list,
    include_self: bool,
    col_of: np.ndarray | None,
    cols: np.ndarray | None,
) -> int:
    """The row-loop scan of a series whose packed keys would overflow
    int64; returns the trip count.  It records no checkpoints and
    resumes from none (either would need packed keys)."""
    width = series.num_nodes if cols is None else cols.size
    A = np.full((series.num_nodes, width), INT_INF, dtype=np.int64)
    H = np.full((series.num_nodes, width), HOP_INF, dtype=np.int64)
    num_trips = 0
    last_processed: int | None = None
    for step, u, v in series.edge_groups(reverse=True):
        if last_processed is not None:
            for accumulator in accumulators:
                accumulator.close_run(step + 1, last_processed)
        if not series.directed:
            u, v = _expand_undirected(u, v)
        num_trips += _process_group(
            A, H, step, u, v, collectors, include_self, 1, accumulators,
            col_of, cols,
        )
        last_processed = step
    _finish_accumulators(accumulators, last_processed)
    return num_trips


def series_distance_stats(
    series: GraphSeries,
    *,
    targets: np.ndarray | None = None,
) -> DistanceStats:
    """Classical distance statistics of a series in one dedicated scan.

    Convenience wrapper over ``scan_series(series, DistanceTotals())`` —
    the measure pipeline (:mod:`repro.engine.tasks`) fuses the same
    accumulator with other measures instead of paying a scan per measure.
    With ``targets`` the statistics cover only trips arriving in the
    subset (the means and fraction are still normalized by the full
    geometry — merge shard accumulators yourself when sharding).
    """
    totals = DistanceTotals()
    scan_series(series, totals, targets=targets)
    return totals.stats(series.num_nodes, series.num_steps)


def _blocked_block_cols(n: int, block_cols: int | None) -> int:
    """Resolve the destination-block width for blocked pair reachability.

    Explicit argument wins; else a width sized so one block's working
    set (three int64 accumulator matrices plus scan state, ~48 bytes per
    cell) stays near 64 MiB.
    """
    if block_cols is None:
        return max(1, min(n, (64 << 20) // (48 * max(n, 1))))
    if block_cols < 1:
        raise ValidationError(
            f"block_cols must be a positive integer, got {block_cols}"
        )
    return int(block_cols)


def blocked_pair_reachability(
    series: GraphSeries,
    *,
    block_cols: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full per-pair reachability matrices, computed in destination blocks.

    Returns ``(reach_steps, dist_sum, hops_sum)`` — three int64
    ``(n, n)`` matrices with zero diagonals, bit-identical to
    :func:`repro.temporal.bruteforce.bruteforce_pair_reachability` — by
    chunking :class:`EarliestArrivalAccumulator` over destination-column
    blocks of ``block_cols`` columns.  The arrival-matrix columns are
    independent dynamic programs, so each block is an ordinary
    ``targets=``-restricted scan and its accumulator matrices scatter
    into the full result; peak accumulator memory drops from
    ``O(n * n)`` to ``O(n * block_cols)`` per block (the three output
    matrices still hold ``n * n``).

    ``block_cols`` defaults to an automatic width targeting ~64 MiB of
    per-block working set.
    """
    n = series.num_nodes
    width = _blocked_block_cols(n, block_cols)
    reach = np.zeros((n, n), dtype=np.int64)
    dist = np.zeros((n, n), dtype=np.int64)
    hops = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, n, width):
        cols = np.arange(lo, min(lo + width, n), dtype=np.int64)
        accumulator = EarliestArrivalAccumulator()
        scan_series(series, accumulator, targets=cols)
        reach[:, cols] = accumulator.reach_steps
        dist[:, cols] = accumulator.dist_sum
        hops[:, cols] = accumulator.hops_sum
    idx = np.arange(n)
    reach[idx, idx] = 0
    dist[idx, idx] = 0
    hops[idx, idx] = 0
    return reach, dist, hops


def _stream_groups(stream: LinkStream) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Yield ``(timestamp, u, v)`` per distinct timestamp, latest first.

    Pairs are deduplicated within each timestamp group.
    """
    t = stream.timestamps
    u = stream.sources
    v = stream.targets
    n = stream.num_nodes
    if not t.size:
        return
    # Events are already time-sorted; find group boundaries.
    boundaries = np.flatnonzero(t[1:] != t[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [t.size]])
    for i in range(starts.size - 1, -1, -1):
        lo, hi = starts[i], ends[i]
        gu, gv = u[lo:hi], v[lo:hi]
        if hi - lo > 1:
            key = gu * n + gv
            __, keep = np.unique(key, return_index=True)
            gu, gv = gu[keep], gv[keep]
        yield t[lo].item(), gu, gv


def scan_stream(
    stream: LinkStream,
    collector=None,
    *,
    include_self: bool = False,
) -> ScanResult:
    """Run the backward scan directly on a link stream.

    Each distinct timestamp is one "window"; durations follow the
    link-stream convention ``arr - dep`` (Definition 4), so single-event
    trips have duration 0.  Used to compute the original stream's minimal
    trips and shortest transitions for the validation measures
    (Section 8).  ``collector`` accepts one trip collector or a sequence
    of them; state accumulators are series-only (the closed-form run
    folding assumes integer window indices).

    Stream scans always run the per-source row loop: float timestamps
    cannot be packed into integer keys, float trip durations would sum
    in a different association order under a batched collector feed
    than under per-source ``record`` calls, and a stream scan runs once
    per analysis.  Series scans (integer window indices, integer
    durations) are where the hot sweeps live; they run on packed keys.
    """
    SCAN_COUNTS["stream"] += 1
    n = stream.num_nodes
    collectors, accumulators = _split_consumers(collector)
    if accumulators:
        raise ValidationError(
            "state accumulators (distance statistics) are defined on "
            "aggregated series; scan_stream only feeds trip collectors"
        )
    float_time = stream.timestamps.dtype.kind == "f"
    if float_time:
        A = np.full((n, n), np.inf, dtype=np.float64)
        duration_extra = 0.0
    else:
        A = np.full((n, n), INT_INF, dtype=np.int64)
        duration_extra = 0
    H = np.full((n, n), HOP_INF, dtype=np.int64)
    num_trips = 0
    num_groups = 0
    for time_value, u, v in _stream_groups(stream):
        num_groups += 1
        if not stream.directed:
            u, v = _expand_undirected(u, v)
        num_trips += _process_group(
            A, H, time_value, u, v, collectors, include_self, duration_extra, []
        )
    return ScanResult(num_trips=num_trips, num_steps=num_groups)
