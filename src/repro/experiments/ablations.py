"""Ablations over CityMesh's design choices.

DESIGN.md calls out four knobs the paper fixes by fiat: the conduit
width W (50 m), the cubed-distance edge weights, the AP density
(1/200 m²), and building-level conduit membership.  Each sweep here
quantifies what that choice buys.

All sweeps run their delivery trials through a
:class:`~repro.experiments.parallel.TrialRunner` with one
deterministic seed per trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis import format_table, percentile
from ..buildgraph import NoRouteError
from ..sim import ConduitPolicy, simulate_broadcast
from ..sim.broadcast import PositionConduitPolicy
from .common import DeliveryResult, World, build_world, sample_building_pairs
from .parallel import DeliveryTrial, TrialRunner, delivery_trials


@dataclass(frozen=True)
class SweepPoint:
    """One parameter setting's delivery metrics."""

    parameter: float
    delivered: int
    attempted: int
    median_overhead: float | None

    @property
    def deliverability(self) -> float | None:
        return self.delivered / self.attempted if self.attempted else None


def _aggregate(outcomes: list[DeliveryResult]) -> SweepPoint:
    delivered = 0
    overheads = []
    attempted = 0
    for outcome in outcomes:
        if not outcome.reachable:
            continue
        attempted += 1
        if outcome.delivered:
            delivered += 1
            if outcome.overhead is not None:
                overheads.append(outcome.overhead)
    return SweepPoint(
        parameter=0.0,
        delivered=delivered,
        attempted=attempted,
        median_overhead=percentile(overheads, 50) if overheads else None,
    )


def sweep_conduit_width(
    city_name: str = "parkside",
    widths: tuple[float, ...] = (25.0, 50.0, 75.0, 100.0, 150.0),
    seed: int = 0,
    pairs: int = 40,
) -> list[SweepPoint]:
    """Deliverability and overhead vs conduit width W."""
    points = []
    for width in widths:
        world = build_world(city_name, seed=seed, conduit_width=width)
        rng = random.Random(seed + 5)
        pair_list = sample_building_pairs(world, pairs, rng)
        outcomes = TrialRunner().run_deliveries(
            world, delivery_trials(pair_list, base_seed=seed + 5)
        )
        point = _aggregate(outcomes)
        points.append(
            SweepPoint(width, point.delivered, point.attempted, point.median_overhead)
        )
    return points


def sweep_weight_exponent(
    city_name: str = "gridport",
    exponents: tuple[float, ...] = (1.0, 2.0, 3.0),
    seed: int = 0,
    pairs: int = 40,
) -> list[SweepPoint]:
    """Deliverability vs the edge-weight exponent (paper: cubed)."""
    points = []
    for exponent in exponents:
        world = build_world(city_name, seed=seed, weight_exponent=exponent)
        rng = random.Random(seed + 5)
        pair_list = sample_building_pairs(world, pairs, rng)
        outcomes = TrialRunner().run_deliveries(
            world, delivery_trials(pair_list, base_seed=seed + 5)
        )
        point = _aggregate(outcomes)
        points.append(
            SweepPoint(exponent, point.delivered, point.attempted, point.median_overhead)
        )
    return points


def sweep_ap_density(
    city_name: str = "gridport",
    densities: tuple[float, ...] = (1 / 400, 1 / 300, 1 / 200, 1 / 100, 1 / 50),
    seed: int = 0,
    pairs: int = 40,
) -> list[SweepPoint]:
    """Reachability+deliverability vs AP density (paper: 1/200 m²).

    Sweep points report the density as square metres per AP (so the
    paper's reference setting reads as 200).
    """
    points = []
    for density in densities:
        world = build_world(city_name, seed=seed, ap_density=density)
        rng = random.Random(seed + 5)
        pair_list = sample_building_pairs(world, pairs, rng)
        outcomes = TrialRunner().run_deliveries(
            world, delivery_trials(pair_list, base_seed=seed + 5)
        )
        delivered = 0
        overheads = []
        for outcome in outcomes:
            if outcome.delivered:
                delivered += 1
                if outcome.overhead is not None:
                    overheads.append(outcome.overhead)
        points.append(
            SweepPoint(
                parameter=round(1.0 / density, 1),  # m^2 per AP: readable
                delivered=delivered,
                attempted=len(pair_list),  # unconditional: density gates reachability
                median_overhead=percentile(overheads, 50) if overheads else None,
            )
        )
    return points


@dataclass(frozen=True)
class MembershipComparison:
    """Building-level vs AP-position conduit membership."""

    building_delivered: int
    position_delivered: int
    attempted: int
    building_median_tx: float | None
    position_median_tx: float | None


def membership_trial(
    world: World, trial: DeliveryTrial
) -> tuple[bool, int, bool, int] | None:
    """Simulate one pair under both membership rules.

    Returns ``(building_delivered, building_tx, position_delivered,
    position_tx)``, or None when the pair is unreachable or unroutable.
    """
    s, d = trial.src_building, trial.dst_building
    if not world.graph.buildings_reachable(s, d):
        return None
    try:
        plan = world.router.plan(s, d)
    except (NoRouteError, KeyError):
        return None
    source_ap = world.graph.aps_in_building(s)[0]
    rng = random.Random(trial.seed)
    building_result = simulate_broadcast(
        world.graph, source_ap, d, ConduitPolicy(plan.conduits, world.city), rng
    )
    position_result = simulate_broadcast(
        world.graph, source_ap, d, PositionConduitPolicy(plan.conduits), rng
    )
    return (
        building_result.delivered,
        building_result.transmissions,
        position_result.delivered,
        position_result.transmissions,
    )


def compare_membership(
    city_name: str = "gridport",
    seed: int = 0,
    pairs: int = 40,
) -> MembershipComparison:
    """§4 attributes the 13x overhead to whole-building rebroadcast;
    this measures what the stricter AP-position rule would do."""
    world = build_world(city_name, seed=seed)
    rng = random.Random(seed + 5)
    pair_list = sample_building_pairs(world, pairs, rng)
    # Batched prewarm: one Dijkstra tree per distinct source; the
    # per-pair router.plan() calls then hit the route cache.
    world.building_graph.plan_routes(pair_list)
    trials = delivery_trials(pair_list, base_seed=seed + 5)
    results = TrialRunner().map(membership_trial, trials, world=world)
    b_delivered = p_delivered = attempted = 0
    b_tx: list[float] = []
    p_tx: list[float] = []
    for result in results:
        if result is None:
            continue
        attempted += 1
        building_delivered, building_tx, position_delivered, position_tx = result
        if building_delivered:
            b_delivered += 1
            b_tx.append(building_tx)
        if position_delivered:
            p_delivered += 1
            p_tx.append(position_tx)
    return MembershipComparison(
        building_delivered=b_delivered,
        position_delivered=p_delivered,
        attempted=attempted,
        building_median_tx=percentile(b_tx, 50) if b_tx else None,
        position_median_tx=percentile(p_tx, 50) if p_tx else None,
    )


def format_sweep(points: list[SweepPoint], parameter_name: str, title: str) -> str:
    """Generic sweep table."""
    return format_table(
        [parameter_name, "deliverability", "median overhead", "delivered/attempted"],
        [
            [
                p.parameter,
                p.deliverability,
                p.median_overhead,
                f"{p.delivered}/{p.attempted}",
            ]
            for p in points
        ],
        title=title,
    )
