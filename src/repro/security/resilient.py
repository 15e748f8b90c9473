"""Resilient sending: route diversification against blackholes.

CityMesh nodes cannot know which APs are compromised, but the sender
*can* notice a missing acknowledgement and retry differently.  This
module implements the natural end-to-end mitigation: retransmit with
(a) a wider conduit, which enrols more honest buildings around the
blackholes, and (b) a perturbed building route, which steers the
conduit through different streets entirely.

This is an extension beyond the paper's preliminary evaluation; the
paper poses the question (§1, Security) and we quantify one answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from ..buildgraph import BuildingGraph, NoRouteError
from ..buildgraph.planner import shortest_routes
from ..city import City
from ..core import BuildingRouter
from ..core.compression import compress_route, conduits_for_waypoints
from ..mesh import APGraph
from ..sim import ConduitPolicy, simulate_broadcast


@dataclass(frozen=True)
class ResilientReport:
    """Outcome of a resilient send."""

    delivered: bool
    attempts: int
    total_transmissions: int
    final_width: float | None


def _detour_route(
    base: BuildingGraph, penalised: set[int], src: int, dst: int, factor: float = 8.0
) -> list[int]:
    """Plan over ``base`` with every edge touching ``penalised`` costing
    ``factor`` times more.

    Penalising previously used relay buildings pushes Dijkstra onto
    geographically different streets on the retry.  The endpoints must
    already be routable in ``base``: reweighting never disconnects them.
    """
    ids, matrix = base.csr()
    hit = np.isin(ids, list(penalised))
    data = matrix.data.copy()
    data[np.repeat(hit, np.diff(matrix.indptr)) | hit[matrix.indices]] *= factor
    detour = csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return shortest_routes(ids, detour, src, [dst])[0][0]


def resilient_send(
    city: City,
    graph: APGraph,
    router: BuildingRouter,
    source_ap: int,
    dest_building: int,
    rng: random.Random,
    compromised: frozenset[int],
    max_attempts: int = 3,
    width_growth: float = 1.6,
) -> ResilientReport:
    """Send with retries: widen the conduit and detour on each failure.

    Args:
        city: shared map.
        graph: ground-truth AP mesh.
        router: the sender's router (its conduit width seeds attempt 1).
        source_ap: injecting AP.
        dest_building: destination postbox building.
        rng: jitter and retry randomness.
        compromised: blackhole APs (unknown to the sender).
        max_attempts: total transmission attempts.
        width_growth: conduit width multiplier per retry.

    Raises:
        ValueError: for non-positive attempts or growth below 1.
    """
    if max_attempts < 1:
        raise ValueError("need at least one attempt")
    if width_growth < 1.0:
        raise ValueError("width growth must be >= 1")
    src_building = graph.aps[source_ap].building_id
    total_tx = 0
    width = router.conduit_width
    used_relays: set[int] = set()
    for attempt in range(1, max_attempts + 1):
        if used_relays:
            route = _detour_route(router.graph, used_relays, src_building, dest_building)
        else:
            try:
                route = router.graph.plan(src_building, dest_building)
            except (NoRouteError, KeyError):
                return ResilientReport(False, attempt, total_tx, None)
        centroids = [router.graph.centroid(b) for b in route]
        compressed = compress_route(centroids, width=width)
        conduits = conduits_for_waypoints(
            [centroids[i] for i in compressed.waypoints], width
        )
        policy = ConduitPolicy(conduits, city)
        result = simulate_broadcast(
            graph, source_ap, dest_building, policy, rng, compromised=compromised
        )
        total_tx += result.transmissions
        if result.delivered:
            return ResilientReport(True, attempt, total_tx, width)
        used_relays.update(route[1:-1])
        width *= width_growth
    return ResilientReport(False, max_attempts, total_tx, None)
