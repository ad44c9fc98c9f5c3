"""Differential and structural tests of the single-pass linear insertion.

:func:`reference_best_insertion` is the brute-force enumerator the operator
replaced: it builds every candidate schedule and evaluates it from scratch.
It lives here only, as the test oracle.  The single-pass
:func:`~repro.insertion.linear_insertion.best_insertion` must return exactly
the same outcome -- compared with ``==``, not approximately -- on arbitrary
routes and travel-time tables, including tables that break the triangle
inequality and contain unreachable pairs.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.insertion.linear_insertion import (
    InsertionOutcome,
    base_route_cost,
    best_insertion,
)
from repro.model.request import Request
from repro.model.schedule import Schedule, Waypoint, WaypointKind
from repro.model.vehicle import RouteState


def reference_best_insertion(route: RouteState, request: Request, oracle) -> InsertionOutcome:
    """Evaluate every (pick-up, drop-off) pair on a freshly built schedule."""
    schedule = route.schedule
    n = len(schedule)
    # Quick rejection: even the direct drive to the pick-up is too late.
    direct_pickup = route.departure_time + oracle.cost(route.origin, request.source)
    if n == 0 and direct_pickup > request.latest_pickup + 1e-9:
        return InsertionOutcome.infeasible(schedule)

    base_cost = base_route_cost(route, oracle)
    best: InsertionOutcome = InsertionOutcome.infeasible(schedule)
    start = route.min_insert_position
    for pickup_pos in range(start, n + 1):
        for dropoff_pos in range(pickup_pos + 1, n + 2):
            candidate = schedule.with_insertion(request, pickup_pos, dropoff_pos)
            evaluation = candidate.evaluate(
                oracle,
                route.origin,
                route.departure_time,
                capacity=route.capacity,
                initial_load=route.onboard,
            )
            if not evaluation.feasible:
                continue
            delta = evaluation.travel_cost - base_cost
            if delta < best.delta_cost - 1e-12:
                best = InsertionOutcome(
                    feasible=True,
                    delta_cost=delta,
                    schedule=candidate,
                    pickup_position=pickup_pos,
                    dropoff_position=dropoff_pos,
                    total_cost=evaluation.travel_cost,
                )
    return best


class TableOracle:
    """Travel times from an explicit table; counts every ``cost`` call."""

    def __init__(self, table: dict[tuple[int, int], float]) -> None:
        self.table = table
        self.calls: Counter[tuple[int, int]] = Counter()

    def cost(self, source: int, target: int) -> float:
        self.calls[(source, target)] += 1
        return self.table[(source, target)]


NODES = tuple(range(6))

@st.composite
def tables(draw) -> dict[tuple[int, int], float]:
    """A travel-time table over :data:`NODES`.

    Legs are jittered planar distances with arbitrary fractional parts, so
    float rounding differs between association orders and the triangle
    inequality need not hold.  A few legs are unreachable (``inf``), and
    sometimes a whole node is.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    unreachable = draw(st.sampled_from([None, None, None, NODES[-1]]))
    points = [(rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)) for _ in NODES]
    table = {}
    for u in NODES:
        for v in NODES:
            if u == v:
                table[(u, v)] = 0.0
            elif unreachable in (u, v) or rng.random() < 0.03:
                table[(u, v)] = math.inf
            else:
                table[(u, v)] = math.dist(points[u], points[v]) * rng.uniform(0.7, 1.3)
    return table


#: Time windows: mostly loose, sometimes anywhere down to zero slack.
windows = st.one_of(st.floats(200.0, 800.0), st.floats(200.0, 800.0), st.floats(0.0, 800.0))


@st.composite
def requests(draw, request_id: int) -> Request:
    release = draw(st.floats(min_value=0.0, max_value=100.0))
    return Request(
        request_id=request_id,
        source=draw(st.sampled_from(NODES)),
        destination=draw(st.sampled_from(NODES)),
        riders=draw(st.integers(min_value=1, max_value=3)),
        release_time=release,
        deadline=release + draw(windows),
        direct_cost=draw(st.floats(min_value=0.0, max_value=40.0)),
        max_wait=draw(st.one_of(st.just(math.inf), windows)),
    )


@st.composite
def routes(draw) -> RouteState:
    """A route of assigned requests, some already onboard (drop-off only).

    Departure times reach past many deadlines, so some base routes are
    already late, as routes in dynamic worlds can be.
    """
    count = draw(st.integers(min_value=0, max_value=4))
    riders = [draw(requests(request_id)) for request_id in range(1, count + 1)]
    onboard = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    queues = [
        ([] if aboard else [Waypoint(rider, WaypointKind.PICKUP)])
        + [Waypoint(rider, WaypointKind.DROPOFF)]
        for rider, aboard in zip(riders, onboard)
    ]
    waypoints = []
    while any(queues):
        live = [queue for queue in queues if queue]
        waypoints.append(live[draw(st.integers(0, len(live) - 1))].pop(0))
    schedule = Schedule(waypoints)
    load = initial_load = sum(r.riders for r, aboard in zip(riders, onboard) if aboard)
    peak = load
    for wp in waypoints:
        load += wp.load_delta
        peak = max(peak, load)
    return RouteState(
        vehicle_id=7,
        origin=draw(st.sampled_from(NODES)),
        departure_time=draw(st.floats(min_value=0.0, max_value=60.0)),
        schedule=schedule,
        # At, below or above the route's peak load: capacity-bound routes.
        capacity=max(1, peak + draw(st.integers(min_value=-1, max_value=3))),
        onboard=initial_load + draw(st.sampled_from([0, 0, 0, 0, -1, 1])),
        min_insert_position=draw(st.sampled_from([0, 0, 1])) if schedule else 0,
    )


@st.composite
def cases(draw) -> tuple[RouteState, Request, dict[tuple[int, int], float]]:
    route = draw(routes())
    held = sorted(route.schedule.request_ids())
    # Sometimes reuse an id the route already holds.
    reuse = held and draw(st.integers(min_value=0, max_value=4)) == 0
    request_id = draw(st.sampled_from(held)) if reuse else 99
    return route, draw(requests(request_id)), draw(tables())


def _fields(outcome: InsertionOutcome) -> tuple:
    return (
        outcome.feasible,
        outcome.delta_cost,
        outcome.total_cost,
        outcome.pickup_position,
        outcome.dropoff_position,
        outcome.schedule,
    )


class TestDifferential:
    @given(case=cases())
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_exactly(self, case):
        route, request, table = case
        fast = best_insertion(route, request, TableOracle(table))
        slow = reference_best_insertion(route, request, TableOracle(table))
        assert _fields(fast) == _fields(slow)

    @given(case=cases())
    @settings(max_examples=120, deadline=None)
    def test_asks_each_leg_at_most_once(self, case):
        route, request, table = case
        oracle = TableOracle(table)
        best_insertion(route, request, oracle)
        assert all(count == 1 for count in oracle.calls.values())

    def test_already_late_route_and_wait_at_pickup(self):
        table = {(u, v): float(abs(u - v)) * 10.0 for u in NODES for v in NODES}
        late = Request(
            request_id=1, source=1, destination=2, release_time=0.0, deadline=5.0
        )
        waiting = Request(
            request_id=2, source=3, destination=4, release_time=500.0, deadline=900.0
        )
        route = RouteState(
            vehicle_id=1, origin=0, departure_time=0.0,
            schedule=Schedule.direct(late), capacity=2, onboard=0,
        )
        fast = best_insertion(route, waiting, TableOracle(table))
        slow = reference_best_insertion(route, waiting, TableOracle(table))
        assert _fields(fast) == _fields(slow)
        assert not fast.feasible  # the base route already misses a deadline
        on_time = RouteState(
            vehicle_id=1, origin=0, departure_time=0.0,
            schedule=Schedule.empty(), capacity=2, onboard=0,
        )
        fast = best_insertion(on_time, waiting, TableOracle(table))
        assert _fields(fast) == _fields(
            reference_best_insertion(on_time, waiting, TableOracle(table))
        )
        assert fast.feasible and fast.total_cost == 40.0

    def test_near_tie_keeps_the_first_pair(self):
        """A later pair cheaper by less than ``1e-12`` does not win."""
        table = {(u, v): 50.0 for u in NODES for v in NODES}
        table.update({(u, u): 0.0 for u in NODES})
        table.update({(0, 2): 10.0, (2, 3): 10.0, (3, 1): 10.0, (0, 1): 10.0})
        table[(1, 2)] = 10.0 - 1e-13
        onboard = Request(request_id=1, source=5, destination=1, release_time=0.0, deadline=1e6)
        newcomer = Request(request_id=2, source=2, destination=3, release_time=0.0, deadline=1e6)
        route = RouteState(
            vehicle_id=1, origin=0, departure_time=0.0,
            schedule=Schedule([Waypoint(onboard, WaypointKind.DROPOFF)]),
            capacity=3, onboard=1,
        )
        fast = best_insertion(route, newcomer, TableOracle(table))
        assert _fields(fast) == _fields(
            reference_best_insertion(route, newcomer, TableOracle(table))
        )
        # Pair (1, 2) prices 1e-13 below pair (0, 1), which was found first.
        assert (fast.pickup_position, fast.dropoff_position) == (0, 1)


class TestStructure:
    def test_builds_one_schedule_and_evaluates_none(self, monkeypatch, make_request, oracle):
        calls = Counter()
        with_insertion = Schedule.with_insertion
        evaluate = Schedule.evaluate

        def counting_with_insertion(self, *args, **kwargs):
            calls["with_insertion"] += 1
            return with_insertion(self, *args, **kwargs)

        def counting_evaluate(self, *args, **kwargs):
            calls["evaluate"] += 1
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(Schedule, "with_insertion", counting_with_insertion)
        monkeypatch.setattr(Schedule, "evaluate", counting_evaluate)
        first = make_request(1, 0, 14, gamma=3.0)
        second = make_request(2, 1, 15, gamma=3.0)
        third = make_request(3, 7, 20, gamma=3.0)
        route = RouteState(
            vehicle_id=1, origin=0, departure_time=0.0,
            schedule=Schedule.direct(first), capacity=3, onboard=0,
        )
        for request in (second, third):
            calls.clear()
            outcome = best_insertion(route, request, oracle)
            assert outcome.feasible
            assert calls["with_insertion"] == 1
            assert calls["evaluate"] == 0
            route = RouteState(
                vehicle_id=1, origin=0, departure_time=0.0,
                schedule=outcome.schedule, capacity=3, onboard=0,
            )
        calls.clear()
        blocked = make_request(4, 35, 0, release_time=0.0, gamma=1.1, max_wait=0.0)
        assert not best_insertion(route, blocked, oracle).feasible
        assert calls["with_insertion"] == 0
        assert calls["evaluate"] == 0

    def test_repeated_stops_price_each_leg_once(self):
        table = {(u, v): float(abs(u - v)) * 10.0 for u in NODES for v in NODES}
        a = Request(request_id=1, source=1, destination=2, release_time=0.0, deadline=1e6)
        b = Request(request_id=2, source=1, destination=2, release_time=0.0, deadline=1e6)
        new = Request(request_id=3, source=2, destination=1, release_time=0.0, deadline=1e6)
        schedule = Schedule.direct(a).extended(Schedule.direct(b).waypoints)
        route = RouteState(
            vehicle_id=1, origin=1, departure_time=0.0,
            schedule=schedule, capacity=3, onboard=0,
        )
        oracle = TableOracle(table)
        outcome = best_insertion(route, new, oracle)
        assert _fields(outcome) == _fields(
            reference_best_insertion(route, new, TableOracle(table))
        )
        assert set(oracle.calls.values()) == {1}
