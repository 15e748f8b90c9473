"""Fault-event taxonomy for disaster timelines.

Every event is a frozen, hashable value object pinned to the epoch at
which it fires; a :class:`~repro.scenario.model.ScenarioSpec` is just a
seeded tuple of them.  The taxonomy covers the failure modes the paper
and its follow-ups discuss:

- :class:`GridOutage` / :class:`PowerRestored` — §2's "supply of
  electricity might be unreliable": the grid fails (citywide or inside
  a region) and APs survive on their :class:`~repro.mesh.PowerProfile`
  until power returns.
- :class:`Damage` — physical destruction (flood, quake, fire): every
  AP inside the polygon dies permanently and every building whose
  centroid falls inside it is removed from the routing map.
- :class:`APChurn` — post-disaster flakiness: each epoch in the active
  window a seeded fraction of the surviving APs drops out, recovering
  a fixed number of epochs later.
- :class:`DeployBridges` — §4's "small number of well-placed APs":
  an operator bridges the currently-alive islands with AP chains and
  announces the new links to the routing layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Polygon


@dataclass(frozen=True)
class GridOutage:
    """Grid power fails at the start of ``epoch``.

    ``region`` limits the outage to APs whose position falls inside the
    polygon; ``None`` means citywide.  Battery drain is measured from
    this event's epoch, so an AP with no backup stays up *at* the
    outage instant (the ``t == 0`` rule of
    :meth:`~repro.mesh.PowerProfile.alive_at`) and is down from the
    next epoch on.
    """

    epoch: int
    region: Polygon | None = None

    def describe(self) -> str:
        scope = "citywide" if self.region is None else "regional"
        return f"grid-outage({scope})"


@dataclass(frozen=True)
class PowerRestored:
    """Grid power returns at the start of ``epoch``.

    Clears active outages whose region equals ``region`` (``None``
    clears every active outage).  Restored APs come back immediately —
    batteries are assumed to recharge off the restored grid.
    """

    epoch: int
    region: Polygon | None = None

    def describe(self) -> str:
        scope = "all" if self.region is None else "regional"
        return f"power-restored({scope})"


@dataclass(frozen=True)
class Damage:
    """Permanent physical destruction inside ``area`` at ``epoch``.

    Two deliberately different granularities: APs die on an exact
    point-in-polygon test of their own position, while buildings leave
    the routing map on a centroid-in-polygon test (a building clipped
    at the edge keeps its surviving APs and stays routable).
    """

    epoch: int
    area: Polygon

    def describe(self) -> str:
        return "damage"


@dataclass(frozen=True)
class APChurn:
    """Random AP churn active on epochs ``[epoch, until_epoch]``.

    Each active epoch, ``rate`` of the currently-eligible APs (in the
    mesh, not destroyed, not already down) drop out for ``down_epochs``
    epochs, then recover.  Draws come from a dedicated per-epoch seeded
    stream, so timelines are reproducible.
    """

    epoch: int
    until_epoch: int
    rate: float
    down_epochs: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.rate <= 1:
            raise ValueError(f"churn rate must be in [0, 1], got {self.rate}")
        if self.until_epoch < self.epoch:
            raise ValueError("churn window must end at or after its start")
        if self.down_epochs < 1:
            raise ValueError("down_epochs must be at least 1")

    def describe(self) -> str:
        return f"ap-churn({self.rate:g})"


@dataclass(frozen=True)
class DeployBridges:
    """Operator bridges the currently-alive islands at ``epoch``.

    Runs the greedy planner of :mod:`repro.mesh.islands` over the alive
    AP set: every island of at least ``min_island_size`` APs is chained
    to the largest one with new APs spaced at ``spacing_factor`` times
    the transmission range.  Deployed APs are operator-maintained
    (generator-backed) and the chain's anchor buildings are announced
    as a routing link, so senders immediately plan across the bridge.
    """

    epoch: int
    min_island_size: int = 5
    spacing_factor: float = 0.8

    def describe(self) -> str:
        return "deploy-bridges"


ScenarioEvent = GridOutage | PowerRestored | Damage | APChurn | DeployBridges
