"""Benchmark runner: set up, serve, check, report.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced serves and reports the per-layer metrics.  Every run
also writes its context (raw wall seconds, kernel probes, spans) under
``servicebench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .calibration import K_NOMINAL_S, ReferenceKernel, calibrate_once
from .checks import assignment_pairs, at_most_once, audit_lateness
from .layers import LayerTracer
from .loop import ServeRecord, serve
from .workloads import DEFAULT_SEED, WORKLOADS, Bundle, WorkloadSpec, set_up

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Serves per run at least; the tick percentiles use exactly this many, so
#: host speed (which decides whether a run fits more) cannot change them.
MIN_SERVES = 2
#: Largest allowed gap between the layer self times inside ticks and the
#: traced tick total, as a share of the total.
COVERAGE_TOLERANCE = 0.05
#: The outermost wrapped call of every tick.  Its self time is the tick's
#: residual: the service's own tick code plus any work no wrapper covers.
#: Coverage leaves it out, or every tick would cover itself.
RESIDUAL_LAYER = "service.tick"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``name -> (unit, better)`` of every end-to-end metric.
END_TO_END: dict[str, tuple[str, str]] = {
    "requests_per_s": ("1/s", "higher"),
    "tick_p50_ms": ("ms", "lower"),
    "tick_p95_ms": ("ms", "lower"),
    "service_rate": ("ratio", "higher"),
    "unified_cost": ("cost", "lower"),
    "on_time_rate": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Layers whose calibrated self seconds are reported as ``<layer>_s``.
TIMED_LAYERS = (
    "service.submit",
    "service.materialise",
    "service.tick",
    "service.shutdown",
    "engine.self",
    "engine.advance",
    "scenario.step",
    "dispatch.self",
    "dispatch.candidates",
    "grid.query_radius",
    "insertion.best_insertion",
    "insertion.pair_schedule",
    "grouping.build_groups",
    "shareability.update",
    "shareability.remove",
    "shareability.loss",
    "oracle.cost",
    "oracle.prefetch",
)

#: ``name -> unit`` of every per-layer metric that is not a layer time.
LAYER_COUNTS: dict[str, str] = {
    "service.queue_high_watermark": "count",
    "engine.advance_calls": "count",
    "dispatch.candidates_per_request": "vehicles/req",
    "dispatch.rounds": "count",
    "grid.query_radius_calls": "count",
    "insertion.calls": "count",
    "insertion.feasible_ratio": "ratio",
    "insertion.route_len_mean": "waypoints",
    "insertion.pair_schedule_calls": "count",
    "grouping.groups_generated": "count",
    "grouping.pruned_ratio": "ratio",
    "shareability.pairs_tested": "count",
    "shareability.edge_ratio": "ratio",
    "shareability.angle_pruned": "count",
    "oracle.queries": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.searches": "count",
    "oracle.settled_nodes": "count",
    "oracle.fallback_queries": "count",
    "refresh.repairs": "count",
    "refresh.rebuilds": "count",
    "refresh.snapshot_hits": "count",
    "scenario.events": "count",
    "trace.tick_total_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """``name -> unit`` of every per-layer metric, in report order."""
    units = {f"{layer}_s": "s" for layer in TIMED_LAYERS}
    units.update(LAYER_COUNTS)
    return units


@dataclass
class Outcome:
    """One benchmark run: metrics, operation counts, checks and context."""

    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    context: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self) -> str:
        """The final JSON object the benchmark prints."""
        units = per_layer_units() if self.trace else {
            name: unit for name, (unit, _) in END_TO_END.items()
        }
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]}
                for name in units
            },
        })


def _percentile(values: list[float], share: float) -> float:
    """Linearly interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _timed_serves(
    bundle: Bundle, kernel: ReferenceKernel, seconds: float, traced: bool
) -> list[tuple[ServeRecord, LayerTracer | None]]:
    """Serve the trace repeatedly until ``seconds`` of wall time have passed.

    A run completes whole serves, at least :data:`MIN_SERVES`.  With
    ``traced``, untraced and traced serves alternate and the run completes
    whole pairs.
    """
    records: list[tuple[ServeRecord, LayerTracer | None]] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if traced and len(records) % 2 == 1:
            with LayerTracer() as tracer:
                records.append((serve(bundle, kernel, tracer), tracer))
        else:
            records.append((serve(bundle, kernel), None))
        if (
            time.perf_counter() - start >= seconds
            and len(records) >= MIN_SERVES
            and (not traced or len(records) % 2 == 0)
        ):
            return records


def _check(outcome: Outcome, bundle: Bundle, records: list[ServeRecord]) -> None:
    """Parity of every serve with one batch run, and at-most-once."""
    batch = bundle.batch_simulator().run()
    expected = assignment_pairs(batch.events)
    for index, record in enumerate(records):
        events = record.result.simulation.events
        if assignment_pairs(events) != expected:
            outcome.problems.append(
                f"serve {index}: service assignments differ from the batch run"
            )
        outcome.problems.extend(
            f"serve {index}: {problem}"
            for problem in at_most_once(events, record.vehicles)
        )


def _operations(outcome: Outcome, records: list[ServeRecord]) -> None:
    """Count attempted and failed operations (submitted requests)."""
    for record in records:
        late = audit_lateness(record.vehicles).late
        outcome.attempted += record.submitted
        outcome.failed += record.submitted - record.result.stats.assigned + late


def _quality(record: ServeRecord) -> dict[str, float]:
    lateness = audit_lateness(record.vehicles)
    return {
        "service_rate": record.result.service_rate,
        "unified_cost": record.result.unified_cost,
        "on_time_rate": (
            (lateness.completed - lateness.late) / lateness.completed
            if lateness.completed
            else 1.0
        ),
    }


def _serve_context(record: ServeRecord) -> dict[str, Any]:
    stats = record.result.stats
    lateness = audit_lateness(record.vehicles)
    return {
        "submitted": record.submitted,
        "admitted": record.admitted,
        "assigned": stats.assigned,
        "accepted": stats.accepted,
        "ticks": len(record.tick_s),
        "late_dropoffs": lateness.late,
        "max_lateness_s": lateness.max_lateness_s,
        "calibrated_s": record.total_s,
        "raw_s": record.raw_total_s,
        "kernel_probes_s": record.calibrator.probes(),
    }


def _end_to_end(
    outcome: Outcome, spec: WorkloadSpec, seed: int, seconds: float
) -> None:
    kernel = ReferenceKernel()
    setups: list[float] = []
    raw_setups: list[float] = []
    bundle: Bundle | None = None
    for _ in range(SETUP_REPEATS):
        bundle = None
        gc.collect()
        bundle, calibrated, raw = calibrate_once(
            kernel, lambda: set_up(spec, seed)
        )
        setups.append(calibrated)
        raw_setups.append(raw)
    assert bundle is not None
    records = [record for record, _ in _timed_serves(bundle, kernel, seconds, False)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check(outcome, bundle, records)
    _deterministic(outcome, records)
    _operations(outcome, records)
    ticks_ms = _tick_medians_ms(outcome, records)
    outcome.metrics.update(
        requests_per_s=statistics.median(
            record.submitted / record.total_s for record in records
        ),
        tick_p50_ms=_percentile(ticks_ms, 0.50),
        tick_p95_ms=_percentile(ticks_ms, 0.95),
        setup_s=statistics.median(setups),
        peak_rss_mb=peak_rss_mb,
        **_quality(records[0]),
    )
    outcome.context.update(
        serves=[_serve_context(record) for record in records],
        tick_samples=len(ticks_ms),
        setup_calibrated_s=setups,
        setup_raw_s=raw_setups,
    )


def _tick_medians_ms(outcome: Outcome, records: list[ServeRecord]) -> list[float]:
    """Each tick's median calibrated milliseconds over the first serves.

    Every serve repeats the same ticks, so the median of one tick over
    :data:`MIN_SERVES` serves keeps its work and drops much of the host
    noise a single timing of a 10 ms tick carries.
    """
    serves = [record.tick_s for record in records[:MIN_SERVES]]
    if len({len(ticks) for ticks in serves}) != 1:
        outcome.problems.append(
            f"serves ran different tick counts: {[len(t) for t in serves]}"
        )
    return [statistics.median(samples) * 1e3 for samples in zip(*serves)]


def _deterministic(outcome: Outcome, records: list[ServeRecord]) -> None:
    """Every serve of one run must give the same quality figures."""
    first = _quality(records[0])
    for index, record in enumerate(records[1:], start=1):
        quality = _quality(record)
        if quality != first:
            outcome.problems.append(
                f"serve {index}: quality differs from serve 0 ({quality} vs {first})"
            )


def layer_metrics(record: ServeRecord, tracer: LayerTracer) -> dict[str, float]:
    """Per-layer metrics of one traced serve (trace totals excluded)."""
    calls, counts = tracer.calls, tracer.counts
    grouping = record.dispatcher.grouping_stats
    builder = record.dispatcher.builder
    if builder is None:
        raise RuntimeError("SARD never built its shareability graph")
    oracle = record.oracle.stats
    metrics = record.result.simulation.metrics
    pruned = grouping.pruned_not_clique + grouping.pruned_infeasible
    values: dict[str, float] = {
        f"{layer}_s": tracer.calibrated.get(layer, 0.0) for layer in TIMED_LAYERS
    }
    values.update({
        "service.queue_high_watermark": record.result.stats.queue_high_watermark,
        "engine.advance_calls": calls["engine.advance"],
        "dispatch.candidates_per_request": (
            counts["dispatch.candidates"] / max(calls["dispatch.candidates"], 1)
        ),
        "dispatch.rounds": record.dispatcher.rounds_executed,
        "grid.query_radius_calls": calls["grid.query_radius"],
        "insertion.calls": calls["insertion.best_insertion"],
        "insertion.feasible_ratio": (
            counts["insertion.feasible"] / max(calls["insertion.best_insertion"], 1)
        ),
        "insertion.route_len_mean": (
            counts["insertion.route_waypoints"]
            / max(calls["insertion.best_insertion"], 1)
        ),
        "insertion.pair_schedule_calls": calls["insertion.pair_schedule"],
        "grouping.groups_generated": grouping.groups_generated,
        "grouping.pruned_ratio": pruned / max(pruned + grouping.groups_generated, 1),
        "shareability.pairs_tested": builder.stats.pairs_tested,
        "shareability.edge_ratio": (
            builder.stats.edges_added / max(builder.stats.pairs_tested, 1)
        ),
        "shareability.angle_pruned": builder.stats.pruned_by_angle,
        "oracle.queries": oracle.queries,
        "oracle.hit_ratio": oracle.cache_hits / max(oracle.queries, 1),
        "oracle.searches": oracle.searches,
        "oracle.settled_nodes": oracle.settled_nodes,
        "oracle.fallback_queries": oracle.fallback_queries,
        "refresh.repairs": metrics.oracle_repairs,
        "refresh.rebuilds": metrics.oracle_rebuilds,
        "refresh.snapshot_hits": metrics.oracle_snapshot_hits,
        "scenario.events": metrics.scenario_events,
    })
    return values


def coverage(tick_layer_raw_s: dict[str, float], tick_total_s: float) -> float:
    """Layer self time inside ticks, residual excluded, over the tick total."""
    covered = sum(
        seconds
        for layer, seconds in tick_layer_raw_s.items()
        if layer != RESIDUAL_LAYER
    )
    return covered / tick_total_s


def coverage_problems(coverages: list[float]) -> list[str]:
    """One problem per traced serve whose coverage misses the tolerance."""
    return [
        f"traced serve {index}: layer self times cover {value:.1%} of the "
        "tick total"
        for index, value in enumerate(coverages)
        if abs(value - 1.0) > COVERAGE_TOLERANCE
    ]


def _coverage(record: ServeRecord) -> float:
    assert record.tick_layer_raw_s is not None
    return coverage(record.tick_layer_raw_s, sum(record.calibrator.raw("tick")))


def _per_layer(outcome: Outcome, spec: WorkloadSpec, seed: int, seconds: float) -> None:
    kernel = ReferenceKernel()
    bundle = set_up(spec, seed)
    runs = _timed_serves(bundle, kernel, seconds, True)
    plain = [record for record, tracer in runs if tracer is None]
    traced = [(record, tracer) for record, tracer in runs if tracer is not None]
    records = [record for record, _ in runs]
    _check(outcome, bundle, records)
    _deterministic(outcome, records)
    _operations(outcome, records)
    per_serve = [layer_metrics(record, tracer) for record, tracer in traced]
    for name in per_serve[0]:
        outcome.metrics[name] = statistics.median(serve[name] for serve in per_serve)
    coverages = [_coverage(record) for record, _ in traced]
    outcome.problems.extend(coverage_problems(coverages))
    outcome.metrics.update({
        "trace.tick_total_s": statistics.median(
            sum(record.tick_s) for record, _ in traced
        ),
        "trace.coverage": statistics.median(coverages),
        "trace.overhead_s": statistics.median(r.total_s for r, _ in traced)
        - statistics.median(r.total_s for r in plain),
    })
    outcome.context.update(
        serves=[
            dict(_serve_context(record), traced=tracer is not None)
            for record, tracer in runs
        ],
    )
    outcome.context["spans"] = [
        [dataclasses.asdict(span) for span in tracer.spans if span is not None]
        for _, tracer in traced
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of one workload."""
    spec = WORKLOADS[workload]
    outcome = Outcome(workload=workload, seed=seed, trace=trace)
    if trace:
        _per_layer(outcome, spec, seed, seconds)
    else:
        _end_to_end(outcome, spec, seed, seconds)
    return outcome


def write_context(outcome: Outcome, out_dir: Path = OUT_DIR) -> Path:
    """Write the run's context (and spans, when traced) under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{outcome.workload}-seed{outcome.seed}-trace{int(outcome.trace)}"
    context = dict(outcome.context)
    spans = context.pop("spans", None)
    if spans is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as handle:
            for serve_index, serve_spans in enumerate(spans):
                for span in serve_spans:
                    handle.write(json.dumps(dict(span, serve=serve_index)) + "\n")
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps({
        "workload": outcome.workload,
        "seed": outcome.seed,
        "k_nominal_s": K_NOMINAL_S,
        "metrics": outcome.metrics,
        "problems": outcome.problems,
        "context": context,
    }, indent=1))
    return path


def report(outcome: Outcome) -> list[str]:
    """Human-readable lines: every metric with its unit, then context."""
    lines = [f"workload {outcome.workload}  seed {outcome.seed}"]
    if outcome.trace:
        units = per_layer_units()
        for name, unit in units.items():
            lines.append(f"  {name:34s} {outcome.metrics[name]:>16.6g} {unit}")
    else:
        for name, (unit, better) in END_TO_END.items():
            lines.append(
                f"  {name:34s} {outcome.metrics[name]:>16.6g} {unit:6s} "
                f"({better} is better)"
            )
        samples = outcome.context["tick_samples"]
        lines.append(
            f"  tick percentiles over {samples} per-tick medians of "
            f"{MIN_SERVES} serves; "
            f"{samples - int(0.95 * (samples - 1)) - 1} lie beyond p95"
        )
    for index, serve in enumerate(outcome.context["serves"]):
        probes = serve["kernel_probes_s"]
        lines.append(
            f"  serve {index}{' traced' if serve.get('traced') else ''}: "
            f"{serve['calibrated_s']:.3f} s calibrated, {serve['raw_s']:.3f} s raw, "
            f"{serve['ticks']} ticks, kernel probes {len(probes)} "
            f"(min {min(probes) * 1e3:.3f} ms, max {max(probes) * 1e3:.3f} ms), "
            f"assigned {serve['assigned']}/{serve['accepted']}, "
            f"late drop-offs {serve['late_dropoffs']} "
            f"(worst {serve['max_lateness_s']:.1f} s)"
        )
    lines.extend(f"  CHECK FAILED: {problem}" for problem in outcome.problems)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_context(outcome)
    for line in report(outcome):
        print(line)
    print(f"  context written to {path}")
    print(outcome.result_line())
    return 0 if outcome.correct else 1
