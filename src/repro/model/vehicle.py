"""Capacitated vehicles that move along their schedules over simulated time."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..exceptions import ScheduleError
from ..network.shortest_path import DistanceOracle
from .request import Request
from .schedule import Schedule, Waypoint, WaypointKind


@dataclass(frozen=True)
class RouteState:
    """Snapshot of a vehicle handed to dispatchers for planning.

    ``origin`` / ``departure_time`` are the node and the moment from which
    the remaining schedule should be evaluated.  When the vehicle is driving
    a leg, the first way-point is *committed*: new stops may only be inserted
    at positions >= ``min_insert_position``.
    """

    vehicle_id: int
    origin: int
    departure_time: float
    schedule: Schedule
    capacity: int
    onboard: int
    min_insert_position: int = 0

    @property
    def free_seats(self) -> int:
        """Seats not occupied by onboard riders."""
        return self.capacity - self.onboard

    def with_schedule(self, schedule: Schedule) -> "RouteState":
        """This snapshot with its remaining schedule replaced by ``schedule``."""
        return RouteState(
            vehicle_id=self.vehicle_id,
            origin=self.origin,
            departure_time=self.departure_time,
            schedule=schedule,
            capacity=self.capacity,
            onboard=self.onboard,
            min_insert_position=self.min_insert_position,
        )


@dataclass
class Vehicle:
    """A vehicle ``w_j`` with a capacity, a location and a planned schedule.

    The vehicle's clock (``_clock``) is the time at which the vehicle is at
    ``location`` ready to depart.  Movement between way-points is committed
    whole legs at a time: once a leg has started, it completes at the
    shortest-path travel time of that leg.
    """

    vehicle_id: int
    location: int
    capacity: int = 3
    schedule: Schedule = field(default_factory=Schedule.empty)
    #: Riders currently inside the vehicle.
    onboard: int = 0
    #: Requests assigned but not yet completed, keyed by request id.
    active_requests: dict[int, Request] = field(default_factory=dict)
    #: Completed requests with their drop-off times.
    completed: list[tuple[Request, float]] = field(default_factory=list)
    #: Total realized driving time, in seconds.
    total_travel_time: float = 0.0
    #: Off-shift vehicles (scenario shift-end events) finish their remaining
    #: schedule but receive no new assignments and leave the spatial index.
    on_shift: bool = True
    _clock: float = 0.0
    #: Arrival time at the first way-point of the schedule when the vehicle
    #: is driving; ``None`` when idle.
    _leg_arrival: float | None = None
    #: Travel time of the leg currently being driven.
    _pending_leg_cost: float = 0.0

    # ------------------------------------------------------------------ #
    # planning interface
    # ------------------------------------------------------------------ #
    def route_state(self, current_time: float) -> RouteState:
        """Return the planning snapshot of this vehicle at ``current_time``."""
        if self.schedule and self._leg_arrival is not None:
            # Driving: the first remaining way-point is committed.
            return RouteState(
                vehicle_id=self.vehicle_id,
                origin=self.location,
                departure_time=self._clock,
                schedule=self.schedule,
                capacity=self.capacity,
                onboard=self.onboard,
                min_insert_position=1,
            )
        return RouteState(
            vehicle_id=self.vehicle_id,
            origin=self.location,
            departure_time=max(self._clock, current_time),
            schedule=self.schedule,
            capacity=self.capacity,
            onboard=self.onboard,
            min_insert_position=0,
        )

    @property
    def is_idle(self) -> bool:
        """True when the vehicle has no remaining way-points."""
        return len(self.schedule) == 0

    @property
    def assigned_request_ids(self) -> set[int]:
        """Identifiers of requests currently assigned to this vehicle."""
        return set(self.active_requests)

    # ------------------------------------------------------------------ #
    # assignment
    # ------------------------------------------------------------------ #
    def assign_schedule(
        self,
        schedule: Schedule,
        new_requests: list[Request],
        current_time: float,
    ) -> None:
        """Replace the remaining schedule and register newly accepted requests.

        The new schedule must keep every previously assigned (uncompleted)
        request and, when the vehicle is mid-leg, keep the committed first
        way-point in place.
        """
        previous_ids = set(self.active_requests)
        new_ids = {r.request_id for r in new_requests}
        covered = schedule.request_ids() | {
            rid for rid in previous_ids if rid not in schedule.request_ids()
        }
        missing = previous_ids - covered
        if missing:
            raise ScheduleError(
                f"vehicle {self.vehicle_id}: new schedule drops active requests {missing}"
            )
        if self._leg_arrival is not None and self.schedule:
            committed = self.schedule[0]
            if not schedule or schedule[0] != committed:
                raise ScheduleError(
                    f"vehicle {self.vehicle_id}: committed way-point {committed!r} "
                    "must stay first while the vehicle is driving"
                )
        for request in new_requests:
            self.active_requests[request.request_id] = request
        was_idle = not self.schedule
        self.schedule = schedule
        if was_idle:
            self._clock = max(self._clock, current_time)
            self._leg_arrival = None
        # The request ids in ``new_ids`` not present in the schedule would be
        # a dispatcher bug: catch it early.
        absent = new_ids - schedule.request_ids()
        if absent:
            raise ScheduleError(
                f"vehicle {self.vehicle_id}: accepted requests {absent} missing "
                "from the assigned schedule"
            )

    # ------------------------------------------------------------------ #
    # movement
    # ------------------------------------------------------------------ #
    def advance_to(self, time: float, oracle: DistanceOracle) -> list[tuple[Request, float]]:
        """Drive along the schedule until ``time``; return completed requests.

        Way-points are processed whenever their arrival time is within the
        horizon.  The returned list contains ``(request, drop_off_time)``
        pairs for requests completed during this advance.
        """
        completed_now: list[tuple[Request, float]] = []
        while self.schedule:
            waypoint = self.schedule[0]
            if self._leg_arrival is None:
                leg_cost = oracle.cost(self.location, waypoint.node)
                if math.isinf(leg_cost):
                    raise ScheduleError(
                        f"vehicle {self.vehicle_id}: way-point {waypoint!r} unreachable"
                    )
                departure = max(self._clock, waypoint.earliest_service - leg_cost)
                self._leg_arrival = departure + leg_cost
                self._pending_leg_cost = leg_cost
            arrival = self._leg_arrival
            service_time = max(arrival, waypoint.earliest_service)
            if service_time > time:
                break
            # Arrive and service the way-point.
            self.total_travel_time += self._pending_leg_cost
            self.location = waypoint.node
            self._clock = service_time
            self._leg_arrival = None
            if waypoint.kind is WaypointKind.PICKUP:
                self.onboard += waypoint.request.riders
            else:
                self.onboard -= waypoint.request.riders
                request = self.active_requests.pop(waypoint.request.request_id, None)
                if request is not None:
                    self.completed.append((request, service_time))
                    completed_now.append((request, service_time))
            self.schedule = Schedule(self.schedule.waypoints[1:])
        if not self.schedule:
            self._clock = max(self._clock, time)
            self._leg_arrival = None
        return completed_now

    def next_event_time(self, oracle: DistanceOracle) -> float:
        """Time at which the vehicle will service its next way-point."""
        if not self.schedule:
            return math.inf
        waypoint = self.schedule[0]
        if self._leg_arrival is not None:
            return max(self._leg_arrival, waypoint.earliest_service)
        leg_cost = oracle.cost(self.location, waypoint.node)
        return max(self._clock + leg_cost, waypoint.earliest_service)

    def estimated_memory_bytes(self) -> int:
        """Rough memory footprint of the vehicle state (for the memory study)."""
        return 200 + 80 * len(self.schedule) + 60 * len(self.active_requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Vehicle({self.vehicle_id} at {self.location}, cap={self.capacity}, "
            f"onboard={self.onboard}, stops={len(self.schedule)})"
        )
