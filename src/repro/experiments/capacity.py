"""Capacity: delivery rate vs offered load under the collision MAC.

The paper's case rests on disaster traffic being low-bandwidth; this
experiment asks how much of it the mesh actually carries.  Messages
arrive as a Poisson process between random building pairs and share
the air — past some load, interference erodes the delivery rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from functools import partial

from ..analysis import format_table
from ..buildgraph import NoRouteError
from ..sim import ConduitPolicy, SimParams, poisson_workload, simulate_traffic
from .common import World, build_world
from .parallel import TrialRunner


@dataclass(frozen=True)
class CapacityPoint:
    """One offered-load level's outcome."""

    rate_per_s: float
    offered: int
    delivered: int
    collision_rate: float
    mean_delay_s: float | None

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0


def capacity_point(
    world: World,
    rate: float,
    duration_s: float = 20.0,
    seed: int = 0,
    jitter_s: float = 0.05,
) -> CapacityPoint:
    """Measure one offered-load level (self-contained per point: its
    randomness comes from ``seed`` alone)."""
    ids = [b.id for b in world.city.buildings if world.graph.aps_in_building(b.id)]

    def make_policy(src: int, dst: int):
        try:
            plan = world.router.plan(src, dst)
        except (NoRouteError, KeyError):
            return None
        return ConduitPolicy(plan.conduits, world.city)

    rng = random.Random(seed + 7)
    messages = poisson_workload(
        world.graph, ids, rate_per_s=rate, duration_s=duration_s,
        make_policy=make_policy, rng=rng,
    )
    result = simulate_traffic(
        world.graph, messages, rng,
        params=SimParams(jitter_s=jitter_s, max_sim_time_s=duration_s * 2),
    )
    delays = [
        o.delivery_time_s
        for o in result.outcomes.values()
        if o.delivered and o.delivery_time_s is not None
    ]
    return CapacityPoint(
        rate_per_s=rate,
        offered=result.offered,
        delivered=result.delivered,
        collision_rate=result.collision_rate,
        mean_delay_s=sum(delays) / len(delays) if delays else None,
    )


def run_capacity_sweep(
    city_name: str = "gridport",
    rates: tuple[float, ...] = (0.5, 2.0, 8.0),
    duration_s: float = 20.0,
    seed: int = 0,
    jitter_s: float = 0.05,
    world: World | None = None,
) -> list[CapacityPoint]:
    """Sweep offered load and measure the capacity curve.

    Each rate point is an independent simulation on the same world;
    the points come back in ``rates`` order.
    """
    fn = partial(capacity_point, duration_s=duration_s, seed=seed, jitter_s=jitter_s)
    if world is None:
        world = build_world(city_name, seed=seed)
    return TrialRunner().map(fn, list(rates), world=world)


def format_capacity(points: list[CapacityPoint]) -> str:
    """Capacity-sweep table."""
    return format_table(
        ["offered rate (msg/s)", "messages", "delivery rate", "collision rate", "mean delay (ms)"],
        [
            [
                p.rate_per_s,
                p.offered,
                p.delivery_rate,
                p.collision_rate,
                p.mean_delay_s * 1000 if p.mean_delay_s is not None else "-",
            ]
            for p in points
        ],
        title=(
            "Capacity: delivery rate vs offered load under the collision MAC\n"
            "(Poisson arrivals between random building pairs, shared air)"
        ),
    )
