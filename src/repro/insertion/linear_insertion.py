"""Linear insertion: add a request to a schedule without reordering it.

This is the operator of Tong et al. [37] that the paper adopts for schedule
maintenance: try every pair of positions for the new pick-up and drop-off,
keep the relative order of the existing stops, and return the feasible
placement with the smallest increase in total travel cost.  The operator is
optimal for a schedule of at most one existing request and a good local
heuristic beyond that.

:func:`best_insertion` runs in one allocation-free pass.  It prices every
leg of the base route once, keeps the base route's prefix clock, travel and
load in arrays, and for each (pick-up, drop-off) pair simulates only the new
legs and the suffix forward from the cached legs; a :class:`Schedule` is
built for the winning pair alone.  Every float is computed with the same
operations, in the same order, as :meth:`Schedule.evaluate` on the extended
schedule, pairs are visited in the same order and the same ``1e-12``
strict-improvement rule picks the winner.  The result is therefore
bit-identical to building and evaluating every candidate schedule, which
``tests/test_insertion_differential.py`` checks against that brute-force
enumerator.  Two loop breaks are exact because travel times are
non-negative, so the clock never runs backwards: the pick-up loop stops once
the prefix clock is past the request's latest pick-up, and the drop-off loop
stops at the first stop between the new pick-up and drop-off that misses its
deadline or the capacity, since every later drop-off keeps that stop in
between with the same clock and load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable

from ..model.request import Request
from ..model.schedule import Schedule, WaypointKind
from ..model.vehicle import RouteState
from ..network.shortest_path import DistanceOracle

INF = math.inf


@dataclass(frozen=True)
class InsertionOutcome:
    """Result of attempting to insert a request into a route.

    ``delta_cost`` is the increase in total travel time over the route's
    current schedule; it is ``math.inf`` when no feasible placement exists.
    """

    feasible: bool
    delta_cost: float
    schedule: Schedule
    pickup_position: int = -1
    dropoff_position: int = -1
    total_cost: float = math.inf

    @classmethod
    def infeasible(cls, schedule: Schedule) -> "InsertionOutcome":
        """The canonical "no feasible placement" outcome."""
        return cls(False, math.inf, schedule)


def base_route_cost(route: RouteState, oracle: DistanceOracle) -> float:
    """Travel cost of the route's current schedule from its origin."""
    return route.schedule.travel_cost(oracle, route.origin)


def best_insertion(
    route: RouteState,
    request: Request,
    oracle: DistanceOracle,
) -> InsertionOutcome:
    """Find the cheapest feasible insertion of ``request`` into ``route``.

    Every pair of positions ``(i, j)`` with ``i < j`` is considered, where
    ``i`` is the index of the pick-up in the current schedule and the
    drop-off follows at index ``j`` of the extended schedule.  Positions
    before ``route.min_insert_position`` are skipped because the vehicle has
    already committed to its next stop.  Each distinct leg is asked of the
    oracle at most once.
    """
    schedule = route.schedule
    waypoints = schedule.waypoints
    n = len(waypoints)
    start = route.min_insert_position

    cost = oracle.cost
    legs: dict[tuple[int, int], float] = {}

    def leg(u: int, v: int) -> float:
        value = legs.get((u, v))
        if value is None:
            value = legs[(u, v)] = cost(u, v)
        return value

    # Per-stop attributes of the base route and its legs, priced once.
    origin = route.origin
    nodes: list[int] = []
    limits: list[float] = []
    earliest: list[float] = []
    deltas: list[int] = []
    base_legs: list[float] = []
    base_cost = 0.0
    here = origin
    for wp in waypoints:
        rider = wp.request
        if wp.kind is WaypointKind.PICKUP:
            node = rider.source
            limits.append(rider.latest_pickup + 1e-9)
            earliest.append(rider.release_time)
            deltas.append(rider.riders)
        else:
            node = rider.destination
            limits.append(rider.deadline + 1e-9)
            earliest.append(0.0)
            deltas.append(-rider.riders)
        nodes.append(node)
        travel_leg = leg(here, node)
        base_legs.append(travel_leg)
        base_cost += travel_leg
        here = node

    # Prefix state before base stop i, for every i the base route reaches
    # feasibly: clock, driven time and onboard load.
    capacity = route.capacity
    clock = route.departure_time
    travel = 0.0
    load = route.onboard
    clocks = [clock]
    travels = [travel]
    loads = [load]
    for k in range(n):
        travel_leg = base_legs[k]
        if travel_leg == INF:
            break
        travel += travel_leg
        clock += travel_leg
        if earliest[k] > clock:
            clock = earliest[k]
        if clock > limits[k]:
            break
        load += deltas[k]
        if load > capacity or load < 0:
            break
        clocks.append(clock)
        travels.append(travel)
        loads.append(load)

    source = request.source
    destination = request.destination
    riders = request.riders
    release = request.release_time
    pickup_limit = request.latest_pickup + 1e-9
    dropoff_limit = request.deadline + 1e-9
    best_delta = INF
    best_total = INF
    best_pickup = best_dropoff = -1
    for i in range(start, len(clocks)):
        if clocks[i] > pickup_limit:
            break
        travel_leg = leg(nodes[i - 1] if i else origin, source)
        if travel_leg == INF:
            continue
        # State after the new pick-up, then after each base stop the
        # drop-off is moved past.
        travel = travels[i] + travel_leg
        clock = clocks[i] + travel_leg
        if release > clock:
            clock = release
        if clock > pickup_limit:
            continue
        load = loads[i] + riders
        if load > capacity:
            continue
        here = source
        for j in range(i + 1, n + 2):
            travel_leg = leg(here, destination)
            if travel_leg != INF:
                total = travel + travel_leg
                arrival = clock + travel_leg
                # ``max(arrival, 0.0)``: a drop-off's earliest service time.
                if 0.0 > arrival:
                    arrival = 0.0
                onboard = load - riders
                feasible = arrival <= dropoff_limit and 0 <= onboard <= capacity
                k = j - 1
                while feasible and k < n:
                    travel_leg = leg(destination, nodes[k]) if k == j - 1 else base_legs[k]
                    if travel_leg == INF:
                        feasible = False
                        break
                    total += travel_leg
                    arrival += travel_leg
                    if earliest[k] > arrival:
                        arrival = earliest[k]
                    onboard += deltas[k]
                    feasible = arrival <= limits[k] and 0 <= onboard <= capacity
                    k += 1
                if feasible:
                    delta = total - base_cost
                    if delta < best_delta - 1e-12:
                        best_delta = delta
                        best_total = total
                        best_pickup, best_dropoff = i, j
            if j > n:
                break
            # Move base stop j - 1 in front of the drop-off.
            k = j - 1
            travel_leg = leg(source, nodes[k]) if k == i else base_legs[k]
            if travel_leg == INF:
                break
            travel += travel_leg
            clock += travel_leg
            if earliest[k] > clock:
                clock = earliest[k]
            if clock > limits[k]:
                break
            load += deltas[k]
            if load > capacity or load < 0:
                break
            here = nodes[k]

    # A request the route already holds, or a route that itself breaks the
    # order constraint, violates the order constraint at every position
    # pair; checking once, for the winner, gives the same answer.
    if best_pickup < 0 or (
        n
        and (
            request.request_id in schedule.request_ids()
            or not schedule.satisfies_order()
        )
    ):
        return InsertionOutcome.infeasible(schedule)
    return InsertionOutcome(
        feasible=True,
        delta_cost=best_delta,
        schedule=schedule.with_insertion(request, best_pickup, best_dropoff),
        pickup_position=best_pickup,
        dropoff_position=best_dropoff,
        total_cost=best_total,
    )


def insert_sequence(
    route: RouteState,
    requests: Iterable[Request],
    oracle: DistanceOracle,
) -> InsertionOutcome:
    """Insert several requests one by one with linear insertion.

    The requests are processed in the given order; each one is inserted into
    the schedule produced by the previous insertions.  Returns the combined
    outcome: infeasible as soon as any single insertion fails.  This is the
    primitive used by the grouping algorithm, which orders the sequence by
    ascending shareability (Section IV-A).
    """
    current = route
    total_delta = 0.0
    last_schedule = route.schedule
    any_inserted = False
    for request in requests:
        outcome = best_insertion(current, request, oracle)
        if not outcome.feasible:
            return InsertionOutcome.infeasible(route.schedule)
        total_delta += outcome.delta_cost
        last_schedule = outcome.schedule
        any_inserted = True
        current = route.with_schedule(outcome.schedule)
    if not any_inserted:
        return InsertionOutcome(
            feasible=True,
            delta_cost=0.0,
            schedule=route.schedule,
            total_cost=base_route_cost(route, oracle),
        )
    return InsertionOutcome(
        feasible=True,
        delta_cost=total_delta,
        schedule=last_schedule,
        total_cost=base_route_cost(route, oracle) + total_delta,
    )
