"""Hypothesis strategies and scan-kernel forcing shared by the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graphseries import GraphSeries
from repro.linkstream import LinkStream
from repro.temporal import reachability


@st.composite
def link_streams(
    draw,
    *,
    min_nodes: int = 2,
    max_nodes: int = 6,
    min_events: int = 1,
    max_events: int = 14,
    max_time: int = 20,
    directed: bool | None = None,
) -> LinkStream:
    """Random small link streams (integer timestamps, no self-loops)."""
    n = draw(st.integers(min_nodes, max_nodes))
    m = draw(st.integers(min_events, max_events))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, max_time),
            ).filter(lambda e: e[0] != e[1]),
            min_size=m,
            max_size=m,
        )
    )
    if directed is None:
        directed = draw(st.booleans())
    u, v, t = zip(*events)
    return LinkStream(u, v, t, directed=directed, num_nodes=n)


@st.composite
def occupancy_samples(draw, *, max_atoms: int = 30):
    """Weighted atom sets on (0, 1] for distribution-statistics tests."""
    atoms = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1).filter(lambda f: f > 0),
            min_size=1,
            max_size=max_atoms,
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, 50),
            min_size=len(atoms),
            max_size=len(atoms),
        )
    )
    return [float(a) for a in atoms], weights


#: The ways a test runs ``scan_series``: its own per-window dispatch
#: ("auto"), the batched kernel on every window ("batched"), the
#: dispatch on int64 keys ("wide"), or the row loop ("legacy") —
#: see :func:`force_scan_kernel`.
KERNEL_CHOICES = ("auto", "batched", "wide", "legacy")

#: The choices that record checkpoints: the row loop runs only where
#: packed keys would overflow, and such a scan records none.
CHECKPOINT_KERNELS = ("auto", "batched", "wide")


def force_scan_kernel(monkeypatch, kernel: str) -> None:
    """Force every following ``scan_series`` onto one scan path.

    ``"auto"`` leaves the per-window dispatch in place: the sparse path
    for windows whose sources hold one hop each, the batched kernel for
    the rest.  ``"batched"`` turns the sparse path off by flagging no
    window sparse.  ``"wide"`` keeps the dispatch but widens every
    scan's packed keys (live state and checkpoints) to int64 through
    the key-dtype helper.  ``"legacy"`` makes the key-dtype helper
    report an int64 overflow, so the scan takes its row-loop fallback
    (which records and resumes no checkpoints).
    """
    if kernel == "batched":
        monkeypatch.setattr(
            reachability,
            "_sparse_windows",
            lambda series: np.zeros(series.nonempty_steps().size, dtype=bool),
        )
    elif kernel in ("wide", "legacy"):
        narrowest = reachability._key_dtype

        def forced(a_inf, K):
            if kernel == "legacy" or narrowest(a_inf, K) is None:
                return None
            return np.dtype(np.int64)

        monkeypatch.setattr(reachability, "_key_dtype", forced)
    elif kernel != "auto":
        raise ValueError(f"unknown scan kernel choice {kernel!r}")


#: Window shapes of :func:`shaped_series`.  Single links, matchings and
#: in-stars give every source one hop (the sparse path); out-stars,
#: undirected stars and arbitrary link sets give some source several.
WINDOW_SHAPES = ("empty", "single", "matching", "in_star", "out_star", "any")


@st.composite
def shaped_series(
    draw, *, min_nodes: int = 3, max_nodes: int = 7, max_steps: int = 8
) -> GraphSeries:
    """Random small graph series whose windows mix single links,
    matchings, stars and arbitrary link sets."""
    n = draw(st.integers(min_nodes, max_nodes))
    num_steps = draw(st.integers(1, max_steps))
    directed = draw(st.booleans())
    rows = set()
    for step in range(num_steps):
        shape = draw(st.sampled_from(WINDOW_SHAPES))
        nodes = draw(st.permutations(range(n)))
        if shape == "single":
            pairs = [(nodes[0], nodes[1])]
        elif shape == "matching":
            size = draw(st.integers(1, n // 2))
            pairs = [(nodes[2 * i], nodes[2 * i + 1]) for i in range(size)]
        elif shape in ("in_star", "out_star"):
            size = draw(st.integers(2, n - 1))
            pairs = [(nodes[0], nodes[i]) for i in range(1, size + 1)]
            if shape == "in_star":
                pairs = [(v, u) for u, v in pairs]
        elif shape == "any":
            pairs = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ).filter(lambda e: e[0] != e[1]),
                    min_size=1,
                    max_size=2 * n,
                )
            )
        else:
            pairs = []
        for u, v in pairs:
            if not directed:
                u, v = min(u, v), max(u, v)
            rows.add((step, u, v))
    step, u, v = (
        np.array(column, dtype=np.int64)
        for column in (zip(*sorted(rows)) if rows else ([], [], []))
    )
    return GraphSeries(n, num_steps, step, u, v, directed=directed)
