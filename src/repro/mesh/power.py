"""Power modelling: which APs survive as the outage drags on.

§2 addresses the obvious objection — "during attacks or disasters, the
supply of electricity might be unreliable" — by noting that grid power
is usually restored quickly and that "off-grid generators and battery
backups are ubiquitous".  This module makes that discussion testable:
each AP gets a power profile (grid-down at t=0, an optional battery or
generator), and the mesh can be evaluated at any time after the outage
starts as batteries deplete.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .graph import APGraph
from .placement import AccessPoint


class PowerSource(Enum):
    """What keeps an AP running once the grid is down."""

    NONE = "none"          # dies the moment the grid does
    BATTERY = "battery"    # UPS: runs until the battery drains
    GENERATOR = "generator"  # fuel keeps coming: effectively unlimited


@dataclass(frozen=True)
class PowerProfile:
    """One AP's survival characteristics after the grid fails."""

    source: PowerSource
    battery_hours: float = 0.0

    def alive_at(self, hours_after_outage: float) -> bool:
        """Whether the AP is still powered at the given time.

        Boundary convention (uniform across every source, no epsilon):
        an AP is alive iff ``t == 0.0`` or ``t < runtime``, where
        ``runtime`` is infinite for GENERATOR, ``battery_hours`` for
        BATTERY, and ``0.0`` for NONE.  Batteries thus power the
        half-open interval ``[0, battery_hours)`` — at exactly
        ``t == battery_hours`` the battery is drained and the AP is
        down — and a NONE AP is alive only at the instant the grid
        fails (``t == 0.0``), which keeps "evaluate the mesh at the
        moment of the outage" meaningful for every profile.

        Raises:
            ValueError: for negative times.
        """
        if hours_after_outage < 0:
            raise ValueError("time must be non-negative")
        return hours_after_outage == 0.0 or hours_after_outage < self.runtime_hours

    @property
    def runtime_hours(self) -> float:
        """Hours the AP runs off-grid: infinite for GENERATOR,
        ``battery_hours`` for BATTERY, ``0.0`` for NONE."""
        if self.source is PowerSource.GENERATOR:
            return math.inf
        if self.source is PowerSource.BATTERY:
            return self.battery_hours
        return 0.0


def assign_power_profiles(
    aps: list[AccessPoint],
    rng: random.Random,
    battery_fraction: float = 0.5,
    generator_fraction: float = 0.05,
    battery_hours_range: tuple[float, float] = (2.0, 24.0),
) -> dict[int, PowerProfile]:
    """Assign a power profile to every AP.

    Defaults are deliberately moderate: half the APs sit behind some
    battery/UPS (routers draw little power; §2 calls backups
    "ubiquitous, particularly in regions where power outages are more
    frequent"), a few percent are on generator-backed buildings
    (hospitals, datacenters), and the rest die with the grid.

    Raises:
        ValueError: for fractions outside [0, 1] or summing past 1.
    """
    if not 0 <= battery_fraction <= 1 or not 0 <= generator_fraction <= 1:
        raise ValueError("fractions must be in [0, 1]")
    if battery_fraction + generator_fraction > 1:
        raise ValueError("battery and generator fractions exceed 1")
    lo, hi = battery_hours_range
    if lo <= 0 or hi < lo:
        raise ValueError("battery hours range must be positive and ordered")
    profiles: dict[int, PowerProfile] = {}
    for ap in aps:
        roll = rng.random()
        if roll < generator_fraction:
            profiles[ap.id] = PowerProfile(PowerSource.GENERATOR)
        elif roll < generator_fraction + battery_fraction:
            profiles[ap.id] = PowerProfile(
                PowerSource.BATTERY, battery_hours=rng.uniform(lo, hi)
            )
        else:
            profiles[ap.id] = PowerProfile(PowerSource.NONE)
    return profiles


def surviving_mesh(
    graph: APGraph,
    profiles: dict[int, PowerProfile],
    hours_after_outage: float,
) -> APGraph:
    """The mesh restricted to APs still powered at the given time.

    Surviving APs are re-indexed to contiguous ids (an :class:`APGraph`
    invariant), so use the returned graph's own ids, not the original's.

    Raises:
        KeyError: if any AP lacks a profile.
    """
    survivors = [
        ap
        for ap in graph.aps
        if profiles[ap.id].alive_at(hours_after_outage)
    ]
    reindexed = [
        AccessPoint(
            id=i,
            position=ap.position,
            building_id=ap.building_id,
            range_m=ap.range_m,
        )
        for i, ap in enumerate(survivors)
    ]
    return APGraph(reindexed, transmission_range=graph.transmission_range)


@dataclass(frozen=True)
class LongevityPoint:
    """Mesh health at one time after the outage."""

    hours: float
    alive_aps: int
    total_aps: int
    reachability: float

    @property
    def alive_fraction(self) -> float:
        return self.alive_aps / self.total_aps if self.total_aps else 0.0


def longevity_curve(
    graph: APGraph,
    profiles: dict[int, PowerProfile],
    hours: tuple[float, ...] = (0.0, 4.0, 12.0, 24.0, 48.0),
    pairs: int = 120,
    rng: random.Random | None = None,
) -> list[LongevityPoint]:
    """Building-pair reachability as batteries drain.

    Reachability is measured over the same building pairs at every time
    step, so the curve isolates the effect of AP die-off.
    """
    if rng is None:
        rng = random.Random(0)
    building_ids = sorted({ap.building_id for ap in graph.aps})
    if len(building_ids) < 2:
        raise ValueError("need at least two AP-bearing buildings")
    pair_list = [tuple(rng.sample(building_ids, 2)) for _ in range(pairs)]
    points = []
    for t in hours:
        alive = surviving_mesh(graph, profiles, t)
        ok = sum(1 for s, d in pair_list if alive.buildings_reachable(s, d))
        points.append(
            LongevityPoint(
                hours=t,
                alive_aps=len(alive),
                total_aps=len(graph.aps),
                reachability=ok / len(pair_list),
            )
        )
    return points
