"""Baseline comparison: CityMesh vs flooding, gossip, greedy, GPSR, AODV.

The paper's related-work section argues traditional schemes either
flood control traffic (MANET protocols) or degrade in cities
(geographic routing).  This experiment puts numbers on that argument
using the common outcome interface.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis import format_table, mean, percentile
from ..baselines import (
    aodv,
    gabriel_graph,
    gpsr,
    greedy_geographic,
    oracle_unicast,
    run_citymesh,
    run_flood,
    run_gossip,
)
from .common import World, build_world, sample_building_pairs


@dataclass(frozen=True)
class SchemeSummary:
    """Aggregate metrics for one scheme over the shared pair sample."""

    scheme: str
    delivered: int
    attempted: int
    mean_total_tx: float | None
    median_overhead: float | None

    @property
    def deliverability(self) -> float:
        return self.delivered / self.attempted if self.attempted else 0.0


def run_baseline_comparison(
    city_name: str = "gridport",
    seed: int = 0,
    pairs: int = 30,
    gossip_p: float = 0.7,
    world: World | None = None,
) -> list[SchemeSummary]:
    """Run every scheme on the same reachable pairs."""
    if world is None:
        world = build_world(city_name, seed=seed)
    rng = random.Random(seed + 8)
    pair_list = [
        (s, d)
        for s, d in sample_building_pairs(world, pairs, rng)
        if world.graph.buildings_reachable(s, d)
    ]
    planar = gabriel_graph(world.graph)
    outcomes: dict[str, list] = {}
    ideals: list[int] = []
    for s, d in pair_list:
        source_ap = world.graph.aps_in_building(s)[0]
        dest_centroid = world.city.building(d).centroid()
        ideal = world.graph.min_hops_to_building(source_ap, d) or 0
        ideals.append(ideal)
        per_scheme = [
            run_citymesh(world.city, world.graph, world.router, source_ap, d, rng),
            run_flood(world.graph, source_ap, d, rng),
            run_gossip(world.graph, source_ap, d, gossip_p, rng),
            greedy_geographic(world.graph, source_ap, d, dest_centroid, count_beacons=True),
            gpsr(world.graph, source_ap, d, dest_centroid, planar=planar, count_beacons=True),
            aodv(world.graph, source_ap, d),
            oracle_unicast(world.graph, source_ap, d),
        ]
        for outcome in per_scheme:
            outcomes.setdefault(outcome.scheme, []).append((outcome, ideal))

    summaries = []
    for scheme, results in outcomes.items():
        delivered = [o for o, _ in results if o.delivered]
        overheads = [
            o.overhead_vs(ideal)
            for o, ideal in results
            if o.delivered and ideal > 0 and o.overhead_vs(ideal) is not None
        ]
        summaries.append(
            SchemeSummary(
                scheme=scheme,
                delivered=len(delivered),
                attempted=len(results),
                mean_total_tx=(
                    mean([o.total_transmissions for o in delivered]) if delivered else None
                ),
                median_overhead=percentile(overheads, 50) if overheads else None,
            )
        )
    return summaries


def format_baselines(summaries: list[SchemeSummary]) -> str:
    """Baseline comparison table."""
    return format_table(
        ["scheme", "deliverability", "mean tx (incl. control)", "median overhead"],
        [
            [
                s.scheme,
                s.deliverability,
                s.mean_total_tx,
                s.median_overhead,
            ]
            for s in summaries
        ],
        title="Baseline comparison on identical reachable pairs",
    )
