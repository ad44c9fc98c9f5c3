"""The closed-loop load generator: one whole trace through the service.

One process, one thread, virtual clock: submit the whole trace in release
order, call ``tick()`` until the queue is empty, call ``shutdown()``.  This
gives the same batches as :meth:`DispatchService.serve`.  The generator
never waits for the clock, so the measured rate is the highest the service
sustains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dispatch.sard import SARDDispatcher
from repro.model.vehicle import Vehicle
from repro.network.shortest_path import DistanceOracle
from repro.service import ServiceResult

from .calibration import Calibrator, ReferenceKernel
from .layers import LayerTracer
from .workloads import Bundle


@dataclass
class ServeRecord:
    """One serve of the trace: its outputs and its calibrated timings."""

    result: ServiceResult
    vehicles: list[Vehicle]
    dispatcher: SARDDispatcher
    oracle: DistanceOracle
    calibrator: Calibrator
    submitted: int
    admitted: int
    #: Raw self seconds per layer spent inside ticks (traced serves only).
    tick_layer_raw_s: dict[str, float] | None = None

    @property
    def total_s(self) -> float:
        """Calibrated seconds of the whole loop: submit, ticks, shutdown."""
        return sum(self.calibrator.calibrated())

    @property
    def raw_total_s(self) -> float:
        """Raw wall seconds of the whole loop."""
        return sum(self.calibrator.raw())

    @property
    def tick_s(self) -> list[float]:
        """Calibrated seconds of each batch tick."""
        return self.calibrator.calibrated("tick")


def serve(
    bundle: Bundle, kernel: ReferenceKernel, tracer: LayerTracer | None = None
) -> ServeRecord:
    """Run the trace once; time it in calibrated segments.

    With a ``tracer`` the caller has installed, its per-layer self times are
    scaled by the same segment factors, and the raw layer time inside ticks
    is kept for the coverage check.
    """
    service = bundle.new_service()
    service.start()
    calibrator = Calibrator(
        probe=kernel.probe, on_segment=tracer.fold if tracer is not None else None
    )
    rides = bundle.rides

    def submit_all() -> int:
        return sum(service.submit(ride).accepted for ride in rides)

    admitted = calibrator.timed("submit", submit_all)
    before = tracer.raw_totals() if tracer is not None else {}
    while service.queue.depth > 0:
        if tracer is not None:
            tracer.tick += 1
        calibrator.timed("tick", service.tick)
    tick_layer_raw_s = None
    if tracer is not None:
        after = tracer.raw_totals()
        tick_layer_raw_s = {
            layer: seconds - before.get(layer, 0.0) for layer, seconds in after.items()
        }
        tracer.tick = -1
    result = calibrator.timed("shutdown", service.shutdown)
    calibrator.close()
    dispatcher = service.dispatcher
    if not isinstance(dispatcher, SARDDispatcher):
        raise TypeError(f"expected SARD, got {dispatcher.name}")
    return ServeRecord(
        result=result,
        vehicles=service.vehicles,
        dispatcher=dispatcher,
        oracle=service.oracle,
        calibrator=calibrator,
        submitted=len(rides),
        admitted=admitted,
        tick_layer_raw_s=tick_layer_raw_s,
    )
