"""Geospatial messaging (geocast): deliver to a place, not a person.

§1 lists "geospatial messaging" among the applications a DFN should
re-enable — e.g. "anyone near the shelter on 5th street".  CityMesh
makes this natural: the sender plans a building route to the building
nearest the target point, and the *last* conduit is replaced by a
delivery disc of radius R around the target.  APs inside the disc both
rebroadcast and deliver to their attached users.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..buildgraph import NoRouteError
from ..city import City
from ..core import BuildingRouter
from ..geometry import ConduitPath, ConduitRect, Point, Polygon
from ..mesh import APGraph, AccessPoint
from ..mesh.verdicts import conduit_mask, footprint_mask
from ..sim import SimParams, simulate_broadcast


@dataclass
class GeocastPolicy:
    """Rebroadcast iff inside the route conduits or the delivery disc."""

    city: City
    conduits: ConduitPath
    target: Point
    radius: float

    def in_disc(self, footprint: Polygon) -> bool:
        """Whether a footprint reaches into the delivery disc."""
        return footprint.distance_to_point(self.target) <= self.radius

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        footprint = self.city.building(ap.building_id).polygon
        return self.in_disc(footprint) or self.conduits.intersects_polygon(footprint)

    def verdict_mask(self, graph: APGraph) -> np.ndarray:
        return conduit_mask(graph, self.city, self.conduits) | footprint_mask(
            graph, self.city, self.in_disc
        )


@dataclass(frozen=True)
class GeocastResult:
    """Outcome of one geocast."""

    delivered: bool
    covered_buildings: int
    target_buildings: int
    transmissions: int

    @property
    def coverage(self) -> float | None:
        """Fraction of in-disc buildings that heard the message.

        None when there is no target building: undefined, not zero.
        """
        if self.target_buildings == 0:
            return None
        return self.covered_buildings / self.target_buildings


def geocast(
    city: City,
    graph: APGraph,
    router: BuildingRouter,
    source_building: int,
    target: Point,
    radius: float,
    rng: random.Random,
    params: SimParams | None = None,
) -> GeocastResult:
    """Send a message to every building within ``radius`` of ``target``.

    Args:
        city: shared map.
        graph: ground-truth AP mesh.
        router: the sender's router (provides graph + conduit width).
        source_building: where the sender is.
        target: geographic destination point.
        radius: delivery disc radius in metres.
        rng: jitter randomness.
        params: simulation knobs.

    Raises:
        ValueError: for a non-positive radius, or a target with no
            mapped building anywhere near it.
    """
    if radius <= 0:
        raise ValueError("geocast radius must be positive")
    anchor = city.nearest_building(target)
    if anchor is None:
        raise ValueError("no building anywhere near the geocast target")
    try:
        plan = router.plan(source_building, anchor.id)
        conduits = plan.conduits
    except (NoRouteError, KeyError):
        # No predicted route: fall back to a degenerate conduit at the
        # source so at least local neighbours hear it.
        centroid = city.building(source_building).centroid()
        conduits = ConduitPath([ConduitRect(centroid, centroid, router.conduit_width)])

    policy = GeocastPolicy(city=city, conduits=conduits, target=target, radius=radius)
    targets = [
        b for b in city.buildings if graph.aps_in_building(b.id) and policy.in_disc(b.polygon)
    ]
    src_aps = graph.aps_in_building(source_building)
    if not src_aps:
        return GeocastResult(False, 0, len(targets), 0)
    result = simulate_broadcast(
        graph, src_aps[0], dest_building=-1, policy=policy, rng=rng, params=params
    )
    heard_buildings = {graph.aps[ap].building_id for ap in result.heard}
    covered = sum(1 for b in targets if b.id in heard_buildings)
    return GeocastResult(
        delivered=covered > 0,
        covered_buildings=covered,
        target_buildings=len(targets),
        transmissions=result.transmissions,
    )
