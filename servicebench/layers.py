"""Per-layer attribution measured from outside the program.

:class:`LayerTracer` replaces the public functions of each layer with timing
wrappers for the duration of one traced serve and restores them afterwards;
nothing under ``src/`` changes.  A wrapped call's *self time* is its wall
time minus the wall time of wrapped calls nested inside it, so the layers'
self times add up to the time spent inside the outermost wrapped calls.

A function imported by name is bound in several modules (``best_insertion``
lives in ``repro.insertion.linear_insertion`` and is imported by SARD and by
the additive tree).  Patching one binding would silently charge the other
callers' time to whichever layer called them, so every module attribute that
is the original function object is patched.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.dispatch import base as dispatch_base
from repro.dispatch.sard import SARDDispatcher
from repro.grouping import additive_tree
from repro.insertion import linear_insertion, pair_schedules
from repro.model.vehicle import Vehicle
from repro.network.grid_index import GridIndex
from repro.network.shortest_path import DistanceOracle
from repro.service import DispatchService, RideRequest
from repro.shareability import loss
from repro.shareability.builder import DynamicShareabilityGraphBuilder
from repro.simulation.engine import Simulator

Observer = Callable[["LayerTracer", tuple, Any], None]


def _observe_insertion(tracer: "LayerTracer", args: tuple, outcome: Any) -> None:
    tracer.counts["insertion.feasible"] += outcome.feasible
    tracer.counts["insertion.route_waypoints"] += len(args[0].schedule)


def _observe_candidates(tracer: "LayerTracer", args: tuple, found: Any) -> None:
    tracer.counts["dispatch.candidates"] += len(found)


@dataclass(frozen=True)
class Wrapped:
    """One wrapped callable: where it lives and which layer it is charged to."""

    owner: Any
    name: str
    layer: str
    #: Recorded as a span (coarse calls); fine-grained calls only aggregate.
    span: bool = False
    observe: Observer | None = None


#: Every wrapped callable.  Classes are patched on the class, so every
#: instance and caller sees the wrapper; module functions are patched in
#: every module that binds them.  ``Simulator._scenario_step`` is the one
#: private hook: it is the only call that brackets both world-event
#: application and the oracle refresh on every batch.
WRAPPED: tuple[Wrapped, ...] = (
    Wrapped(DispatchService, "submit", "service.submit"),
    Wrapped(DispatchService, "tick", "service.tick", span=True),
    Wrapped(DispatchService, "shutdown", "service.shutdown", span=True),
    Wrapped(RideRequest, "to_request", "service.materialise"),
    Wrapped(Simulator, "process_batch", "engine.self", span=True),
    Wrapped(Simulator, "end_run", "engine.self", span=True),
    Wrapped(Simulator, "_scenario_step", "scenario.step", span=True),
    Wrapped(Vehicle, "advance_to", "engine.advance"),
    Wrapped(SARDDispatcher, "dispatch", "dispatch.self", span=True),
    Wrapped(
        dispatch_base, "candidate_vehicles", "dispatch.candidates",
        observe=_observe_candidates,
    ),
    Wrapped(GridIndex, "query_radius", "grid.query_radius"),
    Wrapped(
        linear_insertion, "best_insertion", "insertion.best_insertion",
        observe=_observe_insertion,
    ),
    Wrapped(pair_schedules, "best_pair_schedule", "insertion.pair_schedule"),
    Wrapped(additive_tree, "build_groups", "grouping.build_groups"),
    Wrapped(
        DynamicShareabilityGraphBuilder, "update", "shareability.update", span=True
    ),
    Wrapped(
        DynamicShareabilityGraphBuilder, "remove", "shareability.remove", span=True
    ),
    Wrapped(loss, "residual_shareability_loss", "shareability.loss"),
    Wrapped(loss, "sharing_ratio", "shareability.loss"),
    Wrapped(DistanceOracle, "cost", "oracle.cost"),
    Wrapped(DistanceOracle, "prefetch", "oracle.prefetch"),
)


@dataclass(frozen=True)
class Span:
    """One recorded call of a coarse layer."""

    layer: str
    start: float
    end: float
    #: Index of the nearest enclosing recorded span, or -1.
    parent: int
    #: The service tick the span belongs to (-1 outside ticks).
    tick: int


class LayerTracer:
    """Self-time accounting and spans for the wrapped layers.

    Self times accumulate raw while a calibration segment is open; the
    calibrator calls :meth:`fold` with the segment's factor when it closes,
    which moves them into :attr:`calibrated`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: One ``[nested wall seconds, enclosing span index]`` per open call.
        self._stack: list[list[Any]] = []
        self._pending: dict[str, float] = defaultdict(float)
        self.raw: dict[str, float] = defaultdict(float)
        self.calibrated: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[Span | None] = []
        self.tick = -1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting ------------------------------------------------------ #
    def wrap(self, fn: Callable, entry: Wrapped) -> Callable:
        """A wrapper charging ``fn``'s self time to ``entry.layer``."""
        layer, span, observe = entry.layer, entry.span, entry.observe
        clock, stack, pending, calls = (
            self._clock, self._stack, self._pending, self.calls
        )
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            index = parent
            if span:
                index = len(spans)
                spans.append(None)
            frame: list[Any] = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                pending[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[index] = Span(layer, start, end, parent, self.tick)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def fold(self, factor: float) -> None:
        """Close a calibration segment: scale its self times by ``factor``."""
        for layer, seconds in self._pending.items():
            self.raw[layer] += seconds
            self.calibrated[layer] += seconds * factor
        self._pending.clear()

    def raw_totals(self) -> dict[str, float]:
        """Raw self seconds per layer, including the open segment."""
        totals = dict(self.raw)
        for layer, seconds in self._pending.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    # -- patching -------------------------------------------------------- #
    def install(self) -> None:
        """Patch every binding of every wrapped callable."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        try:
            for entry in WRAPPED:
                if isinstance(entry.owner, type):
                    original = entry.owner.__dict__[entry.name]
                    self._patch(entry.owner, entry.name, self.wrap(original, entry))
                    continue
                original = getattr(entry.owner, entry.name)
                wrapper = self.wrap(original, entry)
                for module in _binding_modules(entry.name, original):
                    self._patch(module, entry.name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def _binding_modules(name: str, original: Callable) -> list[Any]:
    """Every loaded ``repro`` module whose ``name`` is ``original``."""
    return [
        module
        for module_name, module in sorted(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
        and module.__dict__.get(name) is original
    ]
