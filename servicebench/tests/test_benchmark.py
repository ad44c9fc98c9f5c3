"""Determinism, traced/untraced parity and the command-line contract.

The serve-level tests run the full ``rush_hour_repair`` trace (about a
minute in total): it is the workload whose world mutates during the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from servicebench.bench import (
    END_TO_END,
    coverage,
    coverage_problems,
    layer_metrics,
    per_layer_units,
)
from servicebench.calibration import ReferenceKernel
from servicebench.checks import assignment_pairs, at_most_once, audit_lateness
from servicebench.layers import LayerTracer
from servicebench.loop import ServeRecord, serve
from servicebench.workloads import DEFAULT_SEED, WORKLOADS, set_up

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD = WORKLOADS["rush_hour_repair"]


def _deterministic_view(record: ServeRecord, tracer: LayerTracer) -> dict:
    counts = {
        name: value
        for name, value in layer_metrics(record, tracer).items()
        if per_layer_units()[name] != "s"
    }
    return {
        "service_rate": record.result.service_rate,
        "unified_cost": record.result.unified_cost,
        "late_dropoffs": audit_lateness(record.vehicles).late,
        "counts": counts,
    }


@pytest.fixture(scope="module")
def kernel() -> ReferenceKernel:
    return ReferenceKernel()


def _traced(bundle, kernel) -> tuple[ServeRecord, LayerTracer]:
    with LayerTracer() as tracer:
        return serve(bundle, kernel, tracer), tracer


def test_two_runs_give_identical_quality_and_counts(kernel) -> None:
    first = _deterministic_view(*_traced(set_up(WORKLOAD, DEFAULT_SEED), kernel))
    second = _deterministic_view(*_traced(set_up(WORKLOAD, DEFAULT_SEED), kernel))
    assert first == second
    assert first["counts"]["scenario.events"] > 0


def test_traced_run_matches_untraced_run(kernel) -> None:
    bundle = set_up(WORKLOAD, DEFAULT_SEED)
    plain = serve(bundle, kernel)
    traced, tracer = _traced(bundle, kernel)
    plain_events = plain.result.simulation.events
    assert assignment_pairs(plain_events) == assignment_pairs(
        traced.result.simulation.events
    )
    assert at_most_once(plain_events, plain.vehicles) == []
    assert plain.result.unified_cost == traced.result.unified_cost
    value = coverage(traced.tick_layer_raw_s, sum(traced.calibrator.raw("tick")))
    assert coverage_problems([value]) == []


def test_metric_names_match_benchmark_json() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {
        metric["name"]: (metric["unit"], metric["better"])
        for metric in declared["end_to_end"]
    } == END_TO_END
    assert {
        metric["name"]: metric["unit"] for metric in declared["per_layer"]
    } == per_layer_units()
    assert {workload["name"] for workload in declared["workloads"]} == set(WORKLOADS)


def test_command_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "servicebench",
        tmp_path / "servicebench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "servicebench/run.py", "--workload", "nyc_peak"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
