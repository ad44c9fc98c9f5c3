"""Self-time arithmetic and complete, reversible patching."""

from __future__ import annotations

import sys

import pytest

from repro.dispatch import sard
from repro.grouping import additive_tree
from repro.insertion import linear_insertion
from servicebench.bench import RESIDUAL_LAYER, coverage, coverage_problems
from servicebench.layers import WRAPPED, LayerTracer, Wrapped


def test_self_time_subtracts_nested_wrapped_calls() -> None:
    now = [0.0]
    tracer = LayerTracer(clock=lambda: now[0])

    def inner() -> None:
        now[0] += 2.0

    wrapped_inner = tracer.wrap(inner, Wrapped(None, "inner", "b.inner"))

    def outer() -> None:
        now[0] += 1.0
        wrapped_inner()
        wrapped_inner()
        now[0] += 0.5

    tracer.wrap(outer, Wrapped(None, "outer", "a.outer", span=True))()
    assert tracer.raw_totals() == {"a.outer": 1.5, "b.inner": 4.0}
    assert tracer.calls == {"a.outer": 1, "b.inner": 2}
    tracer.fold(2.0)
    assert tracer.calibrated == {"a.outer": 3.0, "b.inner": 8.0}
    (span,) = tracer.spans
    assert span is not None and (span.start, span.end, span.parent) == (0.0, 5.5, -1)


def test_every_binding_is_patched_and_restored() -> None:
    original = linear_insertion.best_insertion
    originals = {
        (id(entry.owner), entry.name): getattr(entry.owner, entry.name)
        for entry in WRAPPED
    }
    with LayerTracer():
        patched = sard.best_insertion
        assert patched is not original
        assert additive_tree.best_insertion is patched
        assert linear_insertion.best_insertion is patched
        assert sys.modules["repro.insertion"].best_insertion is patched
    assert sard.best_insertion is original
    assert additive_tree.best_insertion is original
    for entry in WRAPPED:
        assert getattr(entry.owner, entry.name) is originals[(id(entry.owner), entry.name)]


def test_install_twice_is_refused() -> None:
    tracer = LayerTracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert sard.best_insertion is linear_insertion.best_insertion


def _tick_coverage(unwrapped_s: float) -> float:
    """Coverage of one stub tick: 9 s in a wrapped call plus unwrapped work."""
    now = [0.0]
    tracer = LayerTracer(clock=lambda: now[0])

    def process_batch() -> None:
        now[0] += 9.0

    wrapped_batch = tracer.wrap(
        process_batch, Wrapped(None, "process_batch", "engine.self")
    )

    def tick() -> None:
        wrapped_batch()
        now[0] += unwrapped_s

    tracer.wrap(tick, Wrapped(None, "tick", RESIDUAL_LAYER, span=True))()
    return coverage(tracer.raw_totals(), 9.0 + unwrapped_s)


def test_covered_tick_passes_the_coverage_check() -> None:
    assert _tick_coverage(0.1) == pytest.approx(9.0 / 9.1)
    assert coverage_problems([_tick_coverage(0.1)]) == []


def test_unwrapped_work_inside_a_tick_fails_the_coverage_check() -> None:
    assert _tick_coverage(1.0) == pytest.approx(0.9)
    (problem,) = coverage_problems([_tick_coverage(1.0)])
    assert "cover 90.0%" in problem
