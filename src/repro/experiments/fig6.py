"""Figure 6: reachability, deliverability, and overhead across cities.

The paper tests 1000 building pairs for reachability per city, then 50
reachable pairs for deliverability "using the full event-based
simulation", at a 50 m symmetric range and 1 AP / 200 m², and reports
a 13x median transmission overhead attributable to every AP of a
conduit building rebroadcasting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis import format_table, percentile
from ..city import preset_names
from .common import World, build_world, sample_building_pairs
from .parallel import TrialRunner, delivery_trials


@dataclass(frozen=True)
class Fig6Row:
    """One city's Figure 6 bars."""

    city: str
    pairs_tested: int
    reachable_pairs: int
    delivery_tested: int
    delivered: int
    median_overhead: float | None
    p90_overhead: float | None

    @property
    def reachability(self) -> float | None:
        return self.reachable_pairs / self.pairs_tested if self.pairs_tested else None

    @property
    def deliverability(self) -> float | None:
        """Deliverability *given reachability*, as the paper defines it."""
        return self.delivered / self.delivery_tested if self.delivery_tested else None


def run_fig6_city(
    world: World,
    seed: int = 0,
    reach_pairs: int = 1000,
    delivery_pairs: int = 50,
) -> Fig6Row:
    """Evaluate one city: reachability sweep then event-sim deliveries.

    Deliveries run through a serial :class:`TrialRunner` with one
    deterministic seed per trial.
    """
    rng = random.Random(seed + 1)
    pairs = sample_building_pairs(world, reach_pairs, rng)
    reachable = [
        (s, d) for s, d in pairs if world.graph.buildings_reachable(s, d)
    ]
    delivery_sample = reachable[:delivery_pairs]
    outcomes = TrialRunner().run_deliveries(
        world, delivery_trials(delivery_sample, base_seed=seed + 2)
    )
    delivered = 0
    overheads: list[float] = []
    for outcome in outcomes:
        if outcome.delivered:
            delivered += 1
            if outcome.overhead is not None:
                overheads.append(outcome.overhead)
    return Fig6Row(
        city=world.city.name,
        pairs_tested=len(pairs),
        reachable_pairs=len(reachable),
        delivery_tested=len(delivery_sample),
        delivered=delivered,
        median_overhead=percentile(overheads, 50) if overheads else None,
        p90_overhead=percentile(overheads, 90) if overheads else None,
    )


def run_fig6(
    seed: int = 0,
    cities: list[str] | None = None,
    reach_pairs: int = 1000,
    delivery_pairs: int = 50,
) -> list[Fig6Row]:
    """Regenerate Figure 6 across the city presets."""
    return [
        run_fig6_city(
            build_world(name, seed=seed),
            seed=seed,
            reach_pairs=reach_pairs,
            delivery_pairs=delivery_pairs,
        )
        for name in (cities if cities is not None else preset_names())
    ]


def format_fig6(rows: list[Fig6Row]) -> str:
    """Paper-style per-city bars as a table."""
    return format_table(
        [
            "city",
            "reachability",
            "deliverability|reach",
            "median overhead",
            "p90 overhead",
            "reach pairs",
            "sim pairs",
        ],
        [
            [
                r.city,
                r.reachability,
                r.deliverability,
                r.median_overhead,
                r.p90_overhead,
                f"{r.reachable_pairs}/{r.pairs_tested}",
                f"{r.delivered}/{r.delivery_tested}",
            ]
            for r in rows
        ],
        title=(
            "Figure 6: reachability, deliverability (given reachability), and "
            "transmission overhead per city\n"
            "paper: most cities have high reachability and deliverability; "
            "river/highway cities fracture into islands; overhead ~13x"
        ),
    )
