"""Traced replay of the analysis pipeline, one public call per span.

The replay performs, layer by layer, exactly the work the untraced
entry points do — ``analyze_stream`` for the paper and service
workloads, ``occupancy_method`` for the dense one — but through the
layers' own public functions, each call wrapped in a span:

* ``core.log_delta_grid`` — the Δ grid;
* per Δ: ``graphseries.aggregate``, ``temporal.scan_series`` with every
  measure's collector riding one pass, ``graphseries.series_payload``
  for measures with per-series work, and ``core.finalize`` (the
  measure's ``finalize``, which scores the distribution);
* ``core.select`` — γ is the Δ maximising the mk score;
* validation, when the entry point runs it: ``core.stream_minimal_trips``,
  ``core.shortest_transitions``, ``core.transitions_lost_fraction`` and
  ``core.elongation_at``;
* ``reporting.render_analysis`` where the entry point's output is the
  rendered text (the service).

The engine's per-Δ task runs the same steps, except that it scans
through an ``IncrementalScanSession`` that also records checkpoints for
later appends.  :func:`checkpoint_probe` measures that extra cost: on
sampled Δ it repeats the scan through a session right after the plain
one, in a ``probe.checkpoint`` span the replay's metrics leave out, so
the replay itself stays comparable with the untraced run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    SaturationResult,
    StreamReport,
    elongation_at,
    log_delta_grid,
    shortest_transitions,
    stream_minimal_trips,
    transitions_lost_fraction,
)
from repro.engine import (
    IncrementalScanSession,
    OccupancyMeasure,
    SeriesGeometry,
    normalize_measures,
)
from repro.graphseries import aggregate
from repro.linkstream import stream_summary
from repro.reporting import render_analysis
from repro.temporal import scan_series

#: A non-empty window holding at most this many distinct edges counts
#: as sparse (the regime where per-window fixed costs dominate a scan).
SPARSE_EDGES = 4

#: ``analyze_stream``'s default cap on trips sampled for elongation.
ELONGATION_TRIPS = 50_000


def measure_set(*companions):
    """The measures ``occupancy_method`` builds for method ``"mk"``."""
    return normalize_measures((OccupancyMeasure(methods=("mk",)), *companions))


@dataclass
class SweepReplay:
    """What one traced sweep measured, beside its results."""

    deltas: list[float]
    entries: list[dict]
    task_s: list[float] = field(default_factory=list)
    checkpoint_s: float = 0.0
    nonempty_windows: int = 0
    sparse_windows: int = 0
    snapshot_edges: int = 0
    trips: int = 0

    @property
    def points(self):
        return [entry["occupancy"] for entry in self.entries]

    def saturation(self) -> SaturationResult:
        points = self.points
        scores = np.array([p.scores["mk"] for p in points])
        gamma = points[int(np.argmax(scores))].delta
        companions = {
            name: [entry[name] for entry in self.entries]
            for name in self.entries[0]
            if name != "occupancy"
        }
        return SaturationResult(
            gamma=float(gamma), method="mk", points=points, companions=companions
        )


def replay_sweep(
    tracer, stream, deltas, measures, *, checkpoint_stride: int = 0
) -> tuple[SweepReplay, SaturationResult]:
    """Aggregate, scan, finalize every Δ, then select γ.

    With ``checkpoint_stride``, every stride-th Δ is also scanned through
    a fresh ``IncrementalScanSession`` right after its plain scan, inside
    a ``probe.checkpoint`` span that the replay's metrics leave out (see
    :func:`checkpoint_probe`).
    """
    replay = SweepReplay(deltas=[float(d) for d in deltas], entries=[])
    for index, delta in enumerate(replay.deltas):
        with tracer.span("graphseries.aggregate") as agg:
            series = aggregate(stream, delta)
        per_window = np.bincount(series.edge_steps)
        per_window = per_window[per_window > 0]
        replay.nonempty_windows += int(per_window.size)
        replay.sparse_windows += int(np.count_nonzero(per_window <= SPARSE_EDGES))
        replay.snapshot_edges += int(per_window.sum())

        collectors = {m.name: m.make_collector() for m in measures if m.scans}
        with tracer.span("temporal.scan_series") as scan:
            result = scan_series(series, list(collectors.values()))
        replay.trips += int(result.num_trips)
        if checkpoint_stride and index % checkpoint_stride == 0:
            replay.checkpoint_s += checkpoint_probe(tracer, stream, delta, measures) - scan.duration
        payloads = {}
        payload_s = 0.0
        for m in measures:
            if m.has_payload:
                with tracer.span("graphseries.series_payload") as pay:
                    payloads[m.name] = m.series_payload(series)
                payload_s += pay.duration
        geometry = SeriesGeometry(
            num_nodes=series.num_nodes,
            num_windows=series.num_steps,
            num_nonempty_windows=int(series.nonempty_steps().size),
        )
        with tracer.span("core.finalize") as fin:
            entry = {
                m.name: m.finalize(
                    delta,
                    geometry,
                    payloads.get(m.name),
                    [collectors[m.name]] if m.scans else [],
                )
                for m in measures
            }
        replay.entries.append(entry)
        replay.task_s.append(agg.duration + scan.duration + payload_s + fin.duration)
    with tracer.span("core.select"):
        saturation = replay.saturation()
    return replay, saturation


def replay_analysis(
    tracer, stream, *, num_deltas: int, validate: bool, render: bool,
    checkpoint_stride: int = 0,
):
    """``analyze_stream(stream, validate=..., num_deltas=...)``, replayed.

    Returns ``(report, sweep replay, rendered text or None)``.
    """
    with tracer.span("linkstream.stream_summary"):
        summary = stream_summary(stream)
    with tracer.span("core.log_delta_grid"):
        deltas = log_delta_grid(stream, num=num_deltas)
    replay, saturation = replay_sweep(
        tracer, stream, deltas, measure_set(), checkpoint_stride=checkpoint_stride
    )
    lost = elongation = None
    if validate:
        lost, elongation = replay_validation(tracer, stream, saturation.gamma)
    report = StreamReport(
        summary=summary,
        saturation=saturation,
        transitions_lost_at_gamma=lost,
        elongation_at_gamma=elongation,
    )
    text = None
    if render:
        with tracer.span("reporting.render_analysis"):
            text = render_analysis(report)
    return report, replay, text


def replay_validation(tracer, stream, gamma: float):
    """The Section 8 loss measures at γ, as ``analyze_stream`` runs them."""
    with tracer.span("core.stream_minimal_trips"):
        trips = stream_minimal_trips(stream)
    with tracer.span("core.shortest_transitions"):
        transitions = shortest_transitions(stream, trips)
    lost = None
    if len(transitions):
        with tracer.span("core.transitions_lost_fraction"):
            lost = transitions_lost_fraction(transitions, gamma, origin=stream.t_min)
    with tracer.span("core.elongation_at"):
        elongation = elongation_at(stream, gamma, max_trips=ELONGATION_TRIPS)
    return lost, elongation


def checkpoint_probe(tracer, stream, delta: float, measures) -> float:
    """Seconds one session scan of ``stream`` at ``delta`` takes.

    The scan runs through a fresh ``IncrementalScanSession`` with
    checkpoint capture on and nothing to resume from (the store holds no
    record for this Δ); its excess over the plain scan of the same
    series is the engine's checkpoint cost.
    """
    tokens = tuple((m.name, m.collector_token()) for m in measures if m.scans)
    with tracer.span("probe.checkpoint"):
        session = IncrementalScanSession(stream, delta=delta, consumer_tokens=tokens)
        with tracer.span("engine.session_series"):
            session.series()
        collectors = [m.make_collector() for m in measures if m.scans]
        with tracer.span("engine.session_scan") as scan:
            session.scan(collectors)
    return scan.duration


def render_probe(tracer, report) -> str:
    with tracer.span("reporting.render_analysis"):
        return render_analysis(report)


def replay_wall(tracer, root) -> float:
    """Wall time of a replay span, less the probes nested in it."""
    return root.duration - sum(
        s.duration for s in tracer.subtree(root.id) if s.layer == "probe"
    )


def layer_stats(tracer, root, replay_list, untraced_s: float, reference=None) -> dict:
    """The per-layer metrics every workload reports from its replay.

    Checkpoint probes nested in the replay are left out of its wall time
    and of the layer self times, so ``trace.coverage`` and
    ``trace.overhead`` describe the replay of the untraced pipeline.
    ``trace.overhead`` compares ``untraced_s`` with the replay span
    ``reference`` (default: ``root``) that redid the same work.
    """
    probes = [s for s in tracer.subtree(root.id) if s.layer == "probe"]
    skipped = {s.id for p in probes for s in tracer.subtree(p.id)}
    spans = [s for s in tracer.subtree(root.id) if s.id not in skipped]
    wall = replay_wall(tracer, root)
    scan_s = tracer.total("temporal.scan_series", spans)
    nonempty = sum(r.nonempty_windows for r in replay_list)
    self_times = tracer.self_times(spans)
    layered = sum(t for layer, t in self_times.items() if layer != "bench")
    return {
        "temporal.scan_s": scan_s,
        "temporal.scan_share": scan_s / wall,
        "temporal.us_per_window": scan_s / max(nonempty, 1) * 1e6,
        "temporal.nonempty_windows": nonempty,
        "temporal.sparse_window_share": sum(r.sparse_windows for r in replay_list)
        / max(nonempty, 1),
        "temporal.trips": sum(r.trips for r in replay_list),
        "graphseries.aggregate_s": tracer.total("graphseries.aggregate", spans),
        "graphseries.snapshot_edges": sum(r.snapshot_edges for r in replay_list),
        "engine.longest_task_s": max(max(r.task_s) for r in replay_list),
        "engine.checkpoint_s": sum(r.checkpoint_s for r in replay_list),
        "core.scoring_s": tracer.total("core.finalize", spans)
        + tracer.total("core.select", spans),
        # Validation is counted over the whole run: the paper workload
        # validates inside its replay, the others in a probe.
        "core.validation_s": sum(
            tracer.total(name)
            for name in (
                "core.stream_minimal_trips",
                "core.shortest_transitions",
                "core.transitions_lost_fraction",
                "core.elongation_at",
            )
        ),
        "core.minimal_trips_s": tracer.total("core.stream_minimal_trips"),
        "core.elongation_s": tracer.total("core.elongation_at"),
        "trace.coverage": layered / wall,
        "trace.overhead": replay_wall(tracer, reference or root) / untraced_s,
    }
