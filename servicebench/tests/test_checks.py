"""The correctness checks flag what they exist to catch."""

from __future__ import annotations

from repro.model.request import Request
from repro.model.vehicle import Vehicle
from repro.simulation.events import Event, EventKind, EventLog

from servicebench.checks import assignment_pairs, at_most_once, audit_lateness


def _request(request_id: int, deadline: float = 100.0) -> Request:
    return Request(
        release_time=0.0, request_id=request_id, source=0, destination=1,
        deadline=deadline,
    )


def _log(*pairs: tuple[int, int]) -> EventLog:
    log = EventLog()
    for request_id, vehicle_id in pairs:
        log.record(Event(0.0, EventKind.REQUEST_ASSIGNED, request_id, vehicle_id))
    return log


def test_clean_run_passes() -> None:
    vehicle = Vehicle(vehicle_id=7, location=0)
    vehicle.completed.append((_request(1), 50.0))
    log = _log((1, 7), (2, 7))
    assert assignment_pairs(log) == [(1, 7), (2, 7)]
    assert at_most_once(log, [vehicle]) == []


def test_double_assignment_and_completion_are_flagged() -> None:
    vehicle = Vehicle(vehicle_id=7, location=0)
    vehicle.completed.extend([(_request(1), 50.0), (_request(1), 60.0)])
    problems = at_most_once(_log((1, 7), (1, 8)), [vehicle])
    assert any("assigned 2 times" in problem for problem in problems)
    assert any("completed 2 times" in problem for problem in problems)


def test_completion_without_assignment_is_flagged() -> None:
    vehicle = Vehicle(vehicle_id=7, location=0)
    vehicle.completed.append((_request(3), 50.0))
    assert at_most_once(_log(), [vehicle]) == [
        "request 3 completed by vehicle 7 but assigned to None"
    ]


def test_lateness_audit_counts_drop_offs_after_the_deadline() -> None:
    vehicle = Vehicle(vehicle_id=7, location=0)
    vehicle.completed.extend([
        (_request(1, deadline=100.0), 100.0),
        (_request(2, deadline=100.0), 112.5),
    ])
    lateness = audit_lateness([vehicle])
    assert (lateness.completed, lateness.late, lateness.max_lateness_s) == (2, 1, 12.5)
