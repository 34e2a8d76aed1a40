"""Benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the workload's pipeline with a span around every
call into a layer and reports the per-layer metrics.  The metric names,
units and the workloads come from ``BENCHMARK.json`` at the root.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts checked operations and ``failed`` those that
raised, were refused or produced a wrong output (``error_rate`` is
their ratio).  Scratch files live under ``.perfbench/`` at the root;
each traced run leaves its spans in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
MODULES = {
    "paper-cold": "paper",
    "dense-process": "dense",
    "service-session": "service",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from a repository root holding src/repro", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(root, ".perfbench", "work", run_id)
    os.makedirs(os.path.join(work, "tmp"))
    # Keep every temporary file (the service's upload parsing included)
    # inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    sys.path[:0] = [HERE, os.path.join(root, "src")]

    from common import Run
    from tracing import NullTracer, Tracer

    run = Run(args.seed, args.seconds, root, work)
    tracer = Tracer(run_id) if args.trace else NullTracer()
    try:
        module = importlib.import_module(MODULES[args.workload])
        measure = module.traced if args.trace else module.untraced
        values = measure(run, tracer)
        if args.trace:
            traces = os.path.join(root, ".perfbench", "traces")
            os.makedirs(traces, exist_ok=True)
            tracer.write(os.path.join(traces, f"{run_id}.json"))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    for note in run.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    for line in run.report:
        print(line)
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    error_rate = run.failed / max(run.attempted, 1)
    print(f"error_rate: {error_rate:.6g} ({run.failed} failed of {run.attempted} attempted)")
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.attempted > 0,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
