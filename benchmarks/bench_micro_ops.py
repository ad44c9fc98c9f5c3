"""Micro-benchmarks of the core operators.

These complement the figure reproductions: they time the individual building
blocks (shortest-path queries, grid-index lookups, linear insertion, pairwise
shareability tests, shareability-graph construction, shareability loss and
group enumeration) so regressions in any substrate show up directly.
"""

from __future__ import annotations

import random

import pytest

from repro.config import SimulationConfig
from repro.grouping.additive_tree import build_groups
from repro.insertion.linear_insertion import best_insertion
from repro.insertion.pair_schedules import are_shareable
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState
from repro.network.generators import grid_city
from repro.network.grid_index import GridIndex
from repro.network.shortest_path import DistanceOracle
from repro.shareability.builder import DynamicShareabilityGraphBuilder
from repro.shareability.loss import residual_shareability_loss, shareability_loss


@pytest.fixture(scope="module")
def city():
    return grid_city(14, 14, block_length=150.0, perturbation=0.2, seed=21)


@pytest.fixture(scope="module")
def oracle(city):
    return DistanceOracle(city)


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(max_wait=150.0)


@pytest.fixture(scope="module")
def requests(city, oracle, config):
    rng = random.Random(5)
    nodes = list(city.nodes())
    result = []
    for rid in range(120):
        source, destination = rng.sample(nodes, 2)
        result.append(
            Request.create(
                request_id=rid, source=source, destination=destination,
                release_time=rng.uniform(0, 60), direct_cost=oracle.cost(source, destination),
                gamma=config.gamma, max_wait=config.max_wait,
            )
        )
    return result


def test_shortest_path_query(benchmark, city, oracle):
    rng = random.Random(1)
    nodes = list(city.nodes())
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(200)]

    def run():
        return sum(oracle.cost(u, v) for u, v in pairs)

    assert benchmark(run) > 0


def test_grid_index_radius_query(benchmark, city):
    index = GridIndex.for_network(city, cells_per_axis=24)
    rng = random.Random(2)
    for node in city.nodes():
        x, y = city.position(node)
        index.insert(node, x, y)
    queries = [(rng.uniform(0, 1800), rng.uniform(0, 1800), 400.0) for _ in range(200)]

    def run():
        return sum(len(index.query_radius(x, y, r)) for x, y, r in queries)

    benchmark(run)


def test_linear_insertion(benchmark, oracle, requests):
    base = RouteState(vehicle_id=0, origin=requests[0].source, departure_time=0.0,
                      schedule=Schedule.direct(requests[0]), capacity=4, onboard=0)

    def run():
        feasible = 0
        for request in requests[1:40]:
            if best_insertion(base, request, oracle).feasible:
                feasible += 1
        return feasible

    benchmark(run)


def _route_with_waypoints(requests, oracle, count):
    """A feasible route of ``count`` waypoints built by linear insertion.

    Its riders are the later fixture requests with relaxed deadlines, so
    long routes stay feasible.
    """
    route = RouteState(vehicle_id=0, origin=requests[0].source, departure_time=0.0,
                       schedule=Schedule.empty(), capacity=4, onboard=0)
    for request in requests[40:]:
        if len(route.schedule) == count:
            break
        relaxed = Request.create(
            request_id=request.request_id, source=request.source,
            destination=request.destination, release_time=request.release_time,
            direct_cost=request.direct_cost, gamma=4.0, max_wait=600.0,
        )
        outcome = best_insertion(route, relaxed, oracle)
        if outcome.feasible:
            route = route.with_schedule(outcome.schedule)
    assert len(route.schedule) == count
    return route


@pytest.mark.parametrize("waypoints", [0, 4, 6])
def test_linear_insertion_waypoints(benchmark, oracle, requests, waypoints):
    """Linear insertion into base routes of 0, 4 and 6 waypoints."""
    base = _route_with_waypoints(requests, oracle, waypoints)

    def run():
        return sum(best_insertion(base, request, oracle).feasible for request in requests[1:40])

    benchmark(run)


def test_pairwise_shareability(benchmark, oracle, requests, config):
    pairs = list(zip(requests[:40], requests[40:80]))

    def run():
        return sum(
            are_shareable(a, b, oracle, capacity=config.capacity) for a, b in pairs
        )

    benchmark(run)


def test_shareability_graph_build(benchmark, city, oracle, config, requests):
    def run():
        builder = DynamicShareabilityGraphBuilder(
            network=city, oracle=oracle, config=config,
        )
        builder.update(requests[:80])
        return builder.graph.num_edges

    benchmark(run)


def test_shareability_loss_evaluation(benchmark, city, oracle, config, requests):
    builder = DynamicShareabilityGraphBuilder(network=city, oracle=oracle, config=config)
    builder.update(requests[:80])
    graph = builder.graph
    rng = random.Random(3)
    nodes = [rid for rid in graph.request_ids() if graph.degree(rid) > 0]
    groups = []
    for _ in range(100):
        seed = rng.choice(nodes)
        neighbour = rng.choice(sorted(graph.neighbors(seed)))
        groups.append([seed, neighbour])

    def run():
        total = 0.0
        for group in groups:
            total += shareability_loss(graph, group)
            total += residual_shareability_loss(graph, group)
        return total

    benchmark(run)


def test_group_enumeration(benchmark, city, oracle, config, requests):
    builder = DynamicShareabilityGraphBuilder(network=city, oracle=oracle, config=config)
    builder.update(requests[:60])
    graph = builder.graph
    route = RouteState(vehicle_id=0, origin=0, departure_time=0.0,
                       schedule=Schedule.empty(), capacity=3, onboard=0)

    def run():
        groups = build_groups(requests[:60], graph, route, oracle, max_group_size=3)
        return len(groups)

    benchmark(run)
