"""Host-speed calibration: a fixed reference kernel and the probe scheme.

The benchmark host's speed drifts in phases of several seconds, so a raw
wall time mixes the program's cost with the host's mood.  Every timed
segment of about :data:`SEGMENT_S` seconds of program work therefore sits
between two probes of a fixed reference kernel, and its wall time is scaled
by ``K_NOMINAL_S / mean(probe before, probe after)``.

The kernel is self-contained pure Python and imports nothing from the
program under test, so no program change can move the yardstick.  The
nominal kernel time is a constant: normalising against a per-process
reference would carry that process's own reference error into every
figure.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

#: Nominal duration of one reference-kernel run, in seconds.  Calibrated
#: times read as "seconds on a host where the kernel takes this long".
#: It holds only for the one graph below, so the graph is fixed too.
K_NOMINAL_S = 0.0005
#: The kernel's graph: node count, out-degree and generator seed.
KERNEL_NODES = 400
KERNEL_DEGREE = 4
KERNEL_SEED = 7
#: Program work, in raw seconds, accumulated before the next probe.
SEGMENT_S = 0.02
#: Kernel runs per probe; the probe is their median.  The first run after
#: program work is slower (cold caches), and the median discards it.
PROBE_RUNS = 3

T = TypeVar("T")


class ReferenceKernel:
    """Heap Dijkstra over a fixed seeded graph: the benchmark's yardstick."""

    def __init__(self) -> None:
        rng = random.Random(KERNEL_SEED)
        self._adjacency = [
            [
                (rng.randrange(KERNEL_NODES), rng.uniform(1.0, 10.0))
                for _ in range(KERNEL_DEGREE)
            ]
            for _ in range(KERNEL_NODES)
        ]
        for node in range(KERNEL_NODES - 1):
            self._adjacency[node].append((node + 1, 5.0))
        self._expected = self.run()

    def run(self) -> float:
        """One single-source shortest-path search; returns the distance sum."""
        adjacency = self._adjacency
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sum(dist.values())

    def probe(self) -> float:
        """Median seconds of :data:`PROBE_RUNS` kernel runs."""
        durations = []
        for _ in range(PROBE_RUNS):
            start = time.perf_counter()
            result = self.run()
            durations.append(time.perf_counter() - start)
            if result != self._expected:
                raise RuntimeError("reference kernel returned a different result")
        return statistics.median(durations)


@dataclass
class Segment:
    """Consecutive timed items bracketed by two kernel probes."""

    kernel_before: float
    kernel_after: float
    #: ``(label, raw seconds)`` of each item, in call order.
    items: list[tuple[str, float]]

    @property
    def factor(self) -> float:
        """Scale from raw to calibrated seconds."""
        return K_NOMINAL_S / ((self.kernel_before + self.kernel_after) / 2.0)


@dataclass
class Calibrator:
    """Times labelled calls in segments and scales each by its probes.

    ``on_segment`` is called with each closed segment's factor, so a layer
    tracer can scale the per-layer time it gathered during that segment.
    """

    probe: Callable[[], float]
    clock: Callable[[], float] = time.perf_counter
    segment_s: float = SEGMENT_S
    on_segment: Callable[[float], None] | None = None
    segments: list[Segment] = field(default_factory=list)
    _before: float | None = None
    _open: list[tuple[str, float]] = field(default_factory=list)
    _open_s: float = 0.0

    def timed(self, label: str, fn: Callable[[], T]) -> T:
        """Call ``fn``, recording its wall time under ``label``."""
        if self._before is None:
            self._before = self.probe()
        start = self.clock()
        result = fn()
        elapsed = self.clock() - start
        self._open.append((label, elapsed))
        self._open_s += elapsed
        if self._open_s >= self.segment_s:
            self.close()
        return result

    def close(self) -> None:
        """Probe and close the open segment (no-op when it is empty)."""
        if not self._open:
            return
        assert self._before is not None
        after = self.probe()
        segment = Segment(self._before, after, self._open)
        self.segments.append(segment)
        if self.on_segment is not None:
            self.on_segment(segment.factor)
        self._before = after
        self._open = []
        self._open_s = 0.0

    def calibrated(self, label: str | None = None) -> list[float]:
        """Calibrated seconds of every closed item (of one label), in order."""
        return [
            raw * segment.factor
            for segment in self.segments
            for item_label, raw in segment.items
            if label is None or item_label == label
        ]

    def raw(self, label: str | None = None) -> list[float]:
        """Raw wall seconds of every closed item (of one label), in order."""
        return [
            raw
            for segment in self.segments
            for item_label, raw in segment.items
            if label is None or item_label == label
        ]

    def probes(self) -> list[float]:
        """Every kernel probe taken, in order."""
        if not self.segments:
            return []
        return [self.segments[0].kernel_before] + [
            segment.kernel_after for segment in self.segments
        ]


def calibrate_once(
    kernel: ReferenceKernel, fn: Callable[[], T]
) -> tuple[T, float, float]:
    """Time one long call between two probes.

    Returns ``(result, calibrated seconds, raw seconds)``; used for set-up,
    which is one indivisible call.
    """
    calibrator = Calibrator(probe=kernel.probe, segment_s=float("inf"))
    result = calibrator.timed("call", fn)
    calibrator.close()
    return result, calibrator.calibrated()[0], calibrator.raw()[0]
