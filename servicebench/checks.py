"""Correctness checks, run outside every timed region.

* Parity: the service's (request, vehicle) assignments equal one batch
  ``Simulator.run`` over the same trace.
* At most once: no request is assigned or completed more than once, and
  every completed request was assigned to the vehicle that completed it.
* Lateness audit: riders dropped off after ``request.deadline`` are counted
  from ``Vehicle.completed``.  This is reported, not asserted: late
  drop-offs in dynamic worlds are a known defect of the program.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.model.vehicle import Vehicle
from repro.simulation.events import EventKind, EventLog

#: Tolerance of the deadline comparison, in seconds.
LATE_EPSILON_S = 1e-9


def assignment_pairs(events: EventLog) -> list[tuple[int, int]]:
    """Sorted (request, vehicle) pairs of a run's assignments."""
    return sorted(
        (event.subject, event.other)
        for event in events.of_kind(EventKind.REQUEST_ASSIGNED)
        if event.other is not None
    )


def at_most_once(events: EventLog, vehicles: list[Vehicle]) -> list[str]:
    """Violations of at-most-once assignment and completion (empty if none)."""
    problems: list[str] = []
    assigned_to: dict[int, int] = {}
    for request, count in Counter(
        event.subject for event in events.of_kind(EventKind.REQUEST_ASSIGNED)
    ).items():
        if count > 1:
            problems.append(f"request {request} assigned {count} times")
    for request, vehicle in assignment_pairs(events):
        assigned_to[request] = vehicle
    completions = Counter(
        request.request_id for vehicle in vehicles for request, _ in vehicle.completed
    )
    for request, count in sorted(completions.items()):
        if count > 1:
            problems.append(f"request {request} completed {count} times")
    for vehicle in vehicles:
        for request, _ in vehicle.completed:
            holder = assigned_to.get(request.request_id)
            if holder != vehicle.vehicle_id:
                problems.append(
                    f"request {request.request_id} completed by vehicle "
                    f"{vehicle.vehicle_id} but assigned to {holder}"
                )
    return problems


@dataclass(frozen=True)
class Lateness:
    """Drop-offs after the request's deadline."""

    completed: int
    late: int
    max_lateness_s: float


def audit_lateness(vehicles: list[Vehicle]) -> Lateness:
    """Count completed requests dropped off after their deadline."""
    lateness = [
        drop_time - request.deadline
        for vehicle in vehicles
        for request, drop_time in vehicle.completed
    ]
    late = [value for value in lateness if value > LATE_EPSILON_S]
    return Lateness(
        completed=len(lateness),
        late=len(late),
        max_lateness_s=max(late, default=0.0),
    )
