"""Shared helpers: run context, memory readings, statistics, inputs."""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


@dataclass
class Run:
    """One benchmark invocation: its arguments, scratch space and tallies.

    ``attempted`` counts the operations the run checked (analyses,
    uploads, appends, comparisons against golden or offline results);
    ``failed`` those that raised, were refused, or produced a wrong
    output.  ``notes`` collects one line per failure for stderr.
    """

    seed: int
    seconds: float
    root: str
    work: str
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def say(self, line: str) -> None:
        """A human-readable result line, printed before the JSON line."""
        self.report.append(line)

    def dir(self, *parts: str) -> str:
        """A scratch directory under the run's work space (created)."""
        target = os.path.join(self.work, *parts)
        os.makedirs(target, exist_ok=True)
        return target


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def child_pids() -> list[int]:
    """Live child processes of this process (e.g. pool workers)."""
    pids: list[int] = []
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children"), encoding="ascii") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def relabel(stream, seed: int, salt: int):
    """The stream with its nodes renamed by a seeded permutation.

    γ, every per-Δ occupancy score and every trip count are invariant
    under renaming nodes, so a relabeled replica is a fresh input (new
    bytes, new fingerprint, new scan order) whose paper-level outputs
    are still gated exactly by the committed golden tables.
    """
    from repro.linkstream import LinkStream

    perm = np.random.default_rng((seed, salt)).permutation(stream.num_nodes)
    return LinkStream(
        perm[stream.sources],
        perm[stream.targets],
        stream.timestamps,
        directed=stream.directed,
        num_nodes=stream.num_nodes,
    )


def reset_warm_state() -> None:
    """Drop the process-wide aggregation memo and incremental store, so
    the next analysis starts cold (forked pool workers inherit both)."""
    from repro.engine import clear_incremental_store
    from repro.graphseries import clear_aggregate_cache

    clear_incremental_store()
    clear_aggregate_cache()


def point_rows(saturation) -> list[list]:
    """Per-Δ ``[Δ, trips, mk]`` rows, floats as exact reprs."""
    return [
        [repr(float(p.delta)), int(p.num_trips), repr(float(p.scores["mk"]))]
        for p in saturation.points
    ]


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_golden(run: Run, label: str, saturation, golden: dict) -> None:
    """Exact equality of γ and the per-Δ table against a golden entry."""
    run.check(
        repr(float(saturation.gamma)) == golden["gamma"],
        f"{label}: gamma {saturation.gamma!r} != golden {golden['gamma']}",
    )
    run.check(
        point_rows(saturation) == golden["points"],
        f"{label}: per-delta table differs from golden",
    )
