"""The benchmark's three workloads and their set-up.

All three use the ``nyc`` preset at ``city_scale`` 0.4 with SARD and run
through the same service front door.  The trace is generated with the
preset's own oracle (plain Dijkstra); the service then prices with the
workload's routing backend.  Why each workload exists is in
``servicebench/README.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import ServiceConfig, SimulationConfig
from repro.dispatch import make_dispatcher
from repro.network.shortest_path import DistanceOracle
from repro.scenarios.presets import make_scenario_workload
from repro.scenarios.refresh import OracleRefreshPolicy, make_refresh_policy
from repro.scenarios.timeline import Scenario, ScenarioTimeline
from repro.service import DispatchService, RideRequest
from repro.simulation.engine import Simulator
from repro.workloads.presets import WORKLOAD_PRESETS, Workload, make_workload

PRESET = "nyc"
CITY_SCALE = 0.4
ALGORITHM = "SARD"
#: The preset's own workload seed, used when no ``--seed`` is given.
DEFAULT_SEED = WORKLOAD_PRESETS[PRESET].workload.seed


@dataclass(frozen=True)
class WorkloadSpec:
    """One named benchmark workload."""

    name: str
    #: Multiplies the preset's 130 vehicles; the preset's 2400 requests stay.
    vehicle_scale: float
    backend: str
    scenario: str | None = None
    refresh_policy: str | None = None


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="nyc_peak",
            vehicle_scale=2.0,
            backend="hub_label",
        ),
        WorkloadSpec(
            name="nyc_fleet_surplus",
            vehicle_scale=6.0,
            backend="hub_label",
        ),
        WorkloadSpec(
            name="rush_hour_repair",
            vehicle_scale=2.0,
            backend="ch",
            scenario="rush_hour",
            refresh_policy="repair",
        ),
    )
}


@dataclass
class Bundle:
    """A set-up workload: city, trace and a preprocessed routing backend."""

    spec: WorkloadSpec
    workload: Workload
    scenario: Scenario | None
    config: SimulationConfig
    #: The trace as wire payloads, in release order.
    rides: list[RideRequest]

    def fresh_oracle(self) -> DistanceOracle:
        """An oracle with an empty cache over the shared preprocessed data."""
        return self.workload.fresh_oracle(backend=self.spec.backend)

    def _world(self) -> tuple[ScenarioTimeline | None, OracleRefreshPolicy | None]:
        if self.scenario is None:
            return None, None
        return self.scenario.make_timeline(), make_refresh_policy(
            self.spec.refresh_policy, config=self.scenario.config
        )

    def new_service(self) -> DispatchService:
        """A fresh service on fresh vehicles, dispatcher, oracle and world."""
        timeline, policy = self._world()
        return DispatchService(
            network=self.workload.network,
            oracle=self.fresh_oracle(),
            vehicles=self.workload.fresh_vehicles(),
            dispatcher=make_dispatcher(ALGORITHM),
            config=self.config,
            service_config=ServiceConfig(queue_capacity=len(self.rides)),
            timeline=timeline,
            refresh_policy=policy,
        )

    def batch_simulator(self) -> Simulator:
        """The one-shot batch run the service must reproduce."""
        timeline, policy = self._world()
        return Simulator(
            network=self.workload.network,
            oracle=self.fresh_oracle(),
            vehicles=self.workload.fresh_vehicles(),
            requests=list(self.workload.requests),
            dispatcher=make_dispatcher(ALGORITHM),
            config=self.config,
            record_events=True,
            timeline=timeline,
            refresh_policy=policy,
        )


def set_up(spec: WorkloadSpec, seed: int) -> Bundle:
    """Build the city, generate the trace, place the fleet, preprocess.

    ``seed`` becomes the workload's ``WorkloadConfig.seed`` after the trace
    is generated, so it places the fleet; the trace is always the preset's
    own (seed 22).  The workload seed also draws the five demand hotspots
    that carry 75% of the demand, and across seeds those alone moved
    ``requests_per_s`` and ``unified_cost`` by a third.  The oracle's
    preprocessing is lazy; one query forces it here, so the timed serves
    start from a built backend.
    """
    scenario = None
    if spec.scenario is None:
        workload = make_workload(
            PRESET, vehicle_scale=spec.vehicle_scale, city_scale=CITY_SCALE
        )
    else:
        workload, scenario = make_scenario_workload(
            PRESET,
            spec.scenario,
            vehicle_scale=spec.vehicle_scale,
            city_scale=CITY_SCALE,
        )
    workload = dataclasses.replace(
        workload, workload_config=workload.workload_config.with_overrides(seed=seed)
    )
    config = workload.simulation_config.with_overrides(routing_backend=spec.backend)
    bundle = Bundle(
        spec=spec,
        workload=workload,
        scenario=scenario,
        config=config,
        rides=[
            RideRequest.from_request(request)
            for request in sorted(
                workload.requests, key=lambda r: (r.release_time, r.request_id)
            )
        ],
    )
    first = workload.requests[0]
    bundle.fresh_oracle().cost(first.source, first.destination)
    return bundle
