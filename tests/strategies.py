"""Hypothesis strategies and scan-kernel forcing shared by the tests."""

from __future__ import annotations

import math

from hypothesis import strategies as st

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


#: The ways a test runs ``scan_series``: the density choice, or one
#: kernel forced through :func:`force_scan_kernel`.
KERNEL_CHOICES = ("auto", "batched", "legacy")


def force_scan_kernel(monkeypatch, kernel: str) -> None:
    """Force every following ``scan_series`` onto one kernel.

    The scan runs batched when its hop rows per window reach
    ``BATCHED_MIN_HOPS_PER_WINDOW``, so a zero threshold forces the
    batched kernel and an infinite one the legacy row loop; ``"auto"``
    leaves the measured crossover in place.
    """
    if kernel != "auto":
        threshold = 0.0 if kernel == "batched" else math.inf
        monkeypatch.setattr(
            reachability, "BATCHED_MIN_HOPS_PER_WINDOW", threshold
        )
