"""Calibrated-time arithmetic on a stub with known durations."""

from __future__ import annotations

import pytest

from servicebench.calibration import (
    K_NOMINAL_S,
    Calibrator,
    ReferenceKernel,
    calibrate_once,
)


class StubClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_segments_scale_items_by_the_mean_of_their_probes() -> None:
    clock = StubClock()
    probes = iter([0.001, 0.002, 0.0005, 0.0005])
    calibrator = Calibrator(probe=lambda: next(probes), clock=clock, segment_s=0.05)

    def work(seconds: float):
        def run() -> float:
            clock.now += seconds
            return seconds
        return run

    # Segment 1: 0.03 + 0.03 crosses 0.05 -> probes 0.001 and 0.002.
    assert calibrator.timed("tick", work(0.03)) == 0.03
    calibrator.timed("tick", work(0.03))
    # Segment 2: 0.01 is closed explicitly -> probes 0.002 and 0.0005.
    calibrator.timed("shutdown", work(0.01))
    calibrator.close()
    calibrator.close()  # an empty segment takes no probe

    first = K_NOMINAL_S / 0.0015
    second = K_NOMINAL_S / 0.00125
    assert calibrator.raw() == pytest.approx([0.03, 0.03, 0.01])
    assert calibrator.calibrated("tick") == pytest.approx([0.03 * first] * 2)
    assert calibrator.calibrated("shutdown") == pytest.approx([0.01 * second])
    assert calibrator.probes() == [0.001, 0.002, 0.0005]
    assert [segment.factor for segment in calibrator.segments] == pytest.approx(
        [first, second]
    )


def test_segment_factors_reach_the_observer() -> None:
    clock = StubClock()
    factors: list[float] = []
    calibrator = Calibrator(
        probe=lambda: K_NOMINAL_S * 2, clock=clock, on_segment=factors.append
    )

    def run() -> None:
        clock.now += 0.06

    calibrator.timed("tick", run)
    assert factors == [pytest.approx(0.5)]


def test_calibrate_once_brackets_one_call() -> None:
    probes = iter([0.001, 0.0015])

    class StubKernel(ReferenceKernel):
        def probe(self) -> float:
            return next(probes)

    result, calibrated, raw = calibrate_once(StubKernel(), lambda: 42)
    assert result == 42
    assert calibrated == pytest.approx(raw * K_NOMINAL_S / 0.00125)


def test_kernel_work_is_fixed() -> None:
    assert ReferenceKernel().run() == ReferenceKernel().run()
    assert ReferenceKernel().probe() > 0.0
