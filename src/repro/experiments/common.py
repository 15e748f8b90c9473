"""Shared experiment harness: build worlds, sample pairs, run deliveries."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..buildgraph import BuildingGraph, NoRouteError, attach_hierarchy
from ..city import City, make_city
from ..core import BuildingRouter
from ..mesh import DEFAULT_AP_DENSITY, APGraph, place_aps
from ..sim import ConduitPolicy, SimParams, simulate_broadcast, transmission_overhead

# The paper's §4 evaluation settings.
PAPER_TRANSMISSION_RANGE = 50.0
PAPER_AP_DENSITY = DEFAULT_AP_DENSITY  # 1 AP / 200 m^2
PAPER_CONDUIT_WIDTH = 50.0
# A metropolitan map has ~10^5 buildings; our simulated section is a
# part of it, but devices cache (and encode ids against) the whole map.
METRO_BUILDING_ID_SPACE = 100_000


@dataclass
class World:
    """One fully built simulation world."""

    city: City
    graph: APGraph
    building_graph: BuildingGraph
    router: BuildingRouter


@dataclass(frozen=True)
class WorldSpec:
    """Everything needed to rebuild a preset-city world, hashably.

    Two equal specs build bit-identical worlds (all construction
    randomness flows from ``seed``), so a scenario names its world by
    spec instead of carrying one.
    """

    city_name: str
    seed: int = 0
    transmission_range: float = PAPER_TRANSMISSION_RANGE
    ap_density: float = PAPER_AP_DENSITY
    conduit_width: float = PAPER_CONDUIT_WIDTH
    weight_exponent: float = 3.0
    metro_id_space: bool = False
    hierarchy: bool = False

    def build(self) -> World:
        """Materialise the world this spec describes."""
        return build_world_from_city(
            make_city(self.city_name, seed=self.seed),
            seed=self.seed,
            transmission_range=self.transmission_range,
            ap_density=self.ap_density,
            conduit_width=self.conduit_width,
            weight_exponent=self.weight_exponent,
            metro_id_space=self.metro_id_space,
            hierarchy=self.hierarchy,
        )


def build_world(
    city_name: str,
    seed: int = 0,
    transmission_range: float = PAPER_TRANSMISSION_RANGE,
    ap_density: float = PAPER_AP_DENSITY,
    conduit_width: float = PAPER_CONDUIT_WIDTH,
    weight_exponent: float = 3.0,
    metro_id_space: bool = False,
    hierarchy: bool = False,
) -> World:
    """Build a preset city, its AP mesh, and a router."""
    return WorldSpec(
        city_name=city_name,
        seed=seed,
        transmission_range=transmission_range,
        ap_density=ap_density,
        conduit_width=conduit_width,
        weight_exponent=weight_exponent,
        metro_id_space=metro_id_space,
        hierarchy=hierarchy,
    ).build()


def build_world_from_city(
    city: City,
    seed: int = 0,
    transmission_range: float = PAPER_TRANSMISSION_RANGE,
    ap_density: float = PAPER_AP_DENSITY,
    conduit_width: float = PAPER_CONDUIT_WIDTH,
    weight_exponent: float = 3.0,
    metro_id_space: bool = False,
    hierarchy: bool = False,
) -> World:
    """Build the AP mesh and router for an already-constructed city.

    With ``hierarchy=True`` the building graph gets a metro hierarchy
    attached (:func:`repro.buildgraph.attach_hierarchy`): region
    partitioning is seeded from ``seed`` and the router plans through
    the contracted overlay, cost-identical to the flat planner.
    """
    aps = place_aps(city, density=ap_density, rng=random.Random(seed))
    graph = APGraph(aps, transmission_range=transmission_range)
    building_graph = BuildingGraph(
        city,
        transmission_range=transmission_range,
        weight_exponent=weight_exponent,
        ap_density=ap_density,
    )
    if hierarchy:
        attach_hierarchy(building_graph, seed=seed)
    router = BuildingRouter(
        city,
        graph=building_graph,
        conduit_width=conduit_width,
        max_building_id=METRO_BUILDING_ID_SPACE if metro_id_space else None,
    )
    return World(city=city, graph=graph, building_graph=building_graph, router=router)


def sample_building_pairs(
    world: World, count: int, rng: random.Random
) -> list[tuple[int, int]]:
    """Unique source/destination building pairs where both endpoints
    actually contain at least one AP (otherwise neither reachability
    nor delivery is defined)."""
    ids = [
        b.id for b in world.city.buildings if world.graph.aps_in_building(b.id)
    ]
    if len(ids) < 2:
        raise ValueError("city has too few AP-bearing buildings to sample pairs")
    total = len(ids) * (len(ids) - 1)
    if count > total:
        raise ValueError(
            f"asked for {count} pairs but the city only has {total} "
            "distinct AP-bearing ordered pairs"
        )
    pairs: set[tuple[int, int]] = set()
    attempts = 0
    while len(pairs) < count and attempts < count * 50:
        attempts += 1
        s, d = rng.sample(ids, 2)
        pairs.add((s, d))
    if len(pairs) < count:
        # The rejection budget ran out (tiny id pools spend it on
        # collisions).  Top up deterministically so the sweep size is
        # exactly what the experiment asked for.
        for s in ids:
            for d in ids:
                if s != d and (s, d) not in pairs:
                    pairs.add((s, d))
                    if len(pairs) == count:
                        break
            if len(pairs) == count:
                break
    return list(pairs)


@dataclass(frozen=True)
class DeliveryResult:
    """One CityMesh delivery attempt's metrics."""

    reachable: bool
    routed: bool
    delivered: bool
    transmissions: int
    overhead: float | None


def attempt_delivery(
    world: World,
    src_building: int,
    dst_building: int,
    rng: random.Random,
    params: SimParams | None = None,
) -> DeliveryResult:
    """Run the full CityMesh pipeline for one building pair."""
    reachable = world.graph.buildings_reachable(src_building, dst_building)
    if not reachable:
        return DeliveryResult(False, False, False, 0, None)
    try:
        plan = world.router.plan(src_building, dst_building)
    except (NoRouteError, KeyError):
        return DeliveryResult(True, False, False, 0, None)
    source_ap = world.graph.aps_in_building(src_building)[0]
    policy = ConduitPolicy(plan.conduits, world.city)
    result = simulate_broadcast(
        world.graph, source_ap, dst_building, policy, rng, params=params
    )
    overhead = transmission_overhead(world.graph, result, source_ap, dst_building)
    if overhead == float("inf"):
        overhead = None
    return DeliveryResult(
        reachable=True,
        routed=True,
        delivered=result.delivered,
        transmissions=result.transmissions,
        overhead=overhead,
    )
