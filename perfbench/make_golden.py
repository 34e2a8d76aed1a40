"""Regenerate the golden tables the benchmark gates on.

Run from the repository root::

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/paper.json`` (γ and the per-Δ ``[Δ, trips,
mk]`` table of each paper-scale replica, seed 0, 28-Δ grid) and
``perfbench/golden/dense.json`` (the dense stream, seed 0, six Δ).
Floats are stored as exact ``repr`` strings and compared for equality:
the determinism contract makes any drift a bug, so regenerate only
for a change that is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import dense  # noqa: E402
import paper  # noqa: E402
from common import GOLDEN_DIR, point_rows  # noqa: E402
from repro.core import occupancy_method  # noqa: E402
from repro.datasets import dataset_spec, load  # noqa: E402
from repro.engine import SweepEngine  # noqa: E402
from repro.generators import time_uniform_stream  # noqa: E402
from repro.utils.timeunits import HOUR  # noqa: E402


def entry(saturation) -> dict:
    return {"gamma": repr(float(saturation.gamma)), "points": point_rows(saturation)}


def main() -> None:
    replicas, table1 = {}, {}
    for name in paper.REPLICAS:
        report, _ = paper.analyze_cold(load(name, scale="paper", seed=0))
        replicas[name] = entry(report.saturation)
        table1[name] = {
            "gamma_hours": round(report.gamma / HOUR, 1),
            "paper_hours": dataset_spec(name).gamma_paper_hours,
        }
    write("paper", {
        "about": "analyze_stream, paper scale, seed 0, num_deltas=28; "
        "table1 is the known fidelity state, not gated",
        "replicas": replicas,
        "table1": table1,
    })

    stream = time_uniform_stream(
        dense.NODES, dense.LINKS_PER_PAIR, dense.SPAN, seed=0
    )
    result = occupancy_method(
        stream, dense.grid(stream), measures=("classical",),
        engine=SweepEngine("serial", cache=None),
    )
    write("dense", {
        "about": "occupancy_method + classical, time_uniform_stream(400, 1, 100000, seed=0), "
        "six log-spaced deltas from span/256 to span/16",
        **entry(result),
    })


def write(name: str, payload: dict) -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
