"""Declarative scenario model and the structured per-epoch reports.

A :class:`ScenarioSpec` is a seeded, hashable recipe: a world (as a
:class:`~repro.experiments.WorldSpec`), an epoch grid, and a tuple of
fault events.  Equal specs replay bit-identical timelines — all
randomness flows through :func:`~repro.experiments.seed_for` keyed on
the spec's stream label.

The driver emits one :class:`EpochReport` per epoch and aggregates them
into a :class:`ScenarioResult`, which serializes to deterministic JSON
(sorted keys) so results can be diffed, archived, and compared across
runs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..experiments import WorldSpec
from .events import (
    APChurn,
    Damage,
    DeployBridges,
    GridOutage,
    PowerRestored,
    ScenarioEvent,
)


@dataclass(frozen=True)
class CongestionSpec:
    """Shared-air congestion coupling for a scenario's flows.

    When set on a :class:`ScenarioSpec`, every epoch's flows run
    through :func:`~repro.sim.simulate_traffic_batch` instead of each
    flow broadcasting through a private air: all flows are injected
    within ``window_s`` seconds of each other and contend for the
    channel, so saturating offered load measurably degrades delivery.
    ``frame_time_s`` overrides the per-frame airtime (``None`` keeps
    the radio default).

    Raises:
        ValueError: for a negative window or non-positive frame time.
    """

    window_s: float = 2.0
    frame_time_s: float | None = None

    def __post_init__(self) -> None:
        if self.window_s < 0:
            raise ValueError("congestion window must be non-negative")
        if self.frame_time_s is not None and self.frame_time_s <= 0:
            raise ValueError("frame time must be positive")


def _polygon_coords(polygon) -> list[list[float]] | None:
    if polygon is None:
        return None
    return [[v.x, v.y] for v in polygon.vertices]


def _event_dict(event: ScenarioEvent) -> dict:
    """One event as a plain, JSON-stable dict with a type tag."""
    if isinstance(event, GridOutage):
        return {
            "type": "GridOutage",
            "epoch": event.epoch,
            "region": _polygon_coords(event.region),
        }
    if isinstance(event, PowerRestored):
        return {
            "type": "PowerRestored",
            "epoch": event.epoch,
            "region": _polygon_coords(event.region),
        }
    if isinstance(event, Damage):
        return {
            "type": "Damage",
            "epoch": event.epoch,
            "area": _polygon_coords(event.area),
        }
    if isinstance(event, APChurn):
        return {
            "type": "APChurn",
            "epoch": event.epoch,
            "until_epoch": event.until_epoch,
            "rate": event.rate,
            "down_epochs": event.down_epochs,
        }
    if isinstance(event, DeployBridges):
        return {
            "type": "DeployBridges",
            "epoch": event.epoch,
            "min_island_size": event.min_island_size,
            "spacing_factor": event.spacing_factor,
        }
    raise TypeError(f"unknown scenario event {event!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One seeded disaster timeline, declaratively.

    Attributes:
        name: scenario identity; folded into every RNG stream.
        world: the world recipe (city, seed, densities) the driver
            builds.
        epochs: number of timeline steps.
        epoch_hours: wall-clock hours between consecutive epochs
            (drives battery depletion).
        events: fault events, applied in tuple order within an epoch.
        flows: number of source→destination building flows evaluated
            every epoch.
        battery_fraction / generator_fraction / battery_hours_range:
            power-profile mix assigned to the mesh (see
            :func:`repro.mesh.assign_power_profiles`).
        min_island_size: islands smaller than this are not counted in
            the per-epoch island metric (reachability still uses exact
            components).
        mobile_flows: additional flows whose endpoints *walk*: each
            gets a seeded random trajectory stretched over the
            timeline, and its source/destination buildings follow the
            walk epoch by epoch.  Zero (the default) reproduces the
            static-flow timelines byte for byte.
        congestion: when set, all of an epoch's flows share the air
            (see :class:`CongestionSpec`); ``None`` keeps the
            per-flow private-air broadcast.
        description: one line for ``scenario list``.

    Raises:
        ValueError: for an empty timeline, a non-positive epoch
            duration or flow count, a negative mobile-flow count, or
            an event pinned outside the timeline.
    """

    name: str
    world: WorldSpec
    epochs: int
    epoch_hours: float = 4.0
    events: tuple[ScenarioEvent, ...] = ()
    flows: int = 24
    battery_fraction: float = 0.5
    generator_fraction: float = 0.05
    battery_hours_range: tuple[float, float] = (2.0, 24.0)
    min_island_size: int = 2
    mobile_flows: int = 0
    congestion: CongestionSpec | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("a scenario needs at least one epoch")
        if self.epoch_hours <= 0:
            raise ValueError("epoch duration must be positive")
        if self.flows < 1:
            raise ValueError("a scenario needs at least one flow")
        if self.mobile_flows < 0:
            raise ValueError("mobile flow count cannot be negative")
        for ev in self.events:
            if not 0 <= ev.epoch < self.epochs:
                raise ValueError(
                    f"event {ev.describe()} pinned to epoch {ev.epoch}, "
                    f"outside the {self.epochs}-epoch timeline"
                )

    def stream(self) -> str:
        """The seed-stream label folding the scenario spec's identity.

        Passed to :func:`~repro.experiments.seed_for` so two scenarios
        sharing a base seed (or a scenario and a plain experiment
        sweep) draw unrelated randomness.
        """
        w = self.world
        return (
            f"scenario:{self.name}:{w.city_name}:{w.seed}"
            f":{self.epochs}x{self.epoch_hours:g}:{self.flows}"
        )

    def to_dict(self) -> dict:
        """The full spec as a plain, JSON-stable dict.

        Events carry a ``type`` tag and polygons flatten to vertex
        coordinate lists, so ``json.dumps(spec.to_dict(),
        sort_keys=True)`` is byte-stable for equal specs — the digest
        surface generator-determinism tests (and
        :func:`~repro.scenario.generate.spec_digest`) compare.
        """
        return {
            "name": self.name,
            "world": asdict(self.world),
            "epochs": self.epochs,
            "epoch_hours": self.epoch_hours,
            "events": [_event_dict(ev) for ev in self.events],
            "flows": self.flows,
            "battery_fraction": self.battery_fraction,
            "generator_fraction": self.generator_fraction,
            "battery_hours_range": list(self.battery_hours_range),
            "min_island_size": self.min_island_size,
            "mobile_flows": self.mobile_flows,
            "congestion": (
                None if self.congestion is None else asdict(self.congestion)
            ),
            "description": self.description,
        }


@dataclass(frozen=True)
class EpochReport:
    """The structured outcome of one timeline step.

    ``replans`` counts routing-table work this epoch (epoch 0 includes
    the initial planning of every flow); ``route_cache_hits`` /
    ``route_cache_misses`` are *deltas* over the epoch — senders replan
    lazily, so an epoch whose graph version did not change shows zero
    planner work of either kind.  ``delivery_rate`` is delivered
    flows over **all** flows — an unroutable or unreachable flow counts
    as a failure, which is exactly how an operator would score the
    network.
    """

    epoch: int
    hour: float
    events: tuple[str, ...]
    alive_aps: int
    total_aps: int
    islands: int
    largest_island: int
    graph_version: int
    mutated: bool
    deployed_aps: int
    replans: int
    flows: int
    routable_flows: int
    reachable_flows: int
    simulated_flows: int
    delivered_flows: int
    delivery_rate: float
    transmissions: int
    route_cache_hits: int
    route_cache_misses: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["events"] = list(self.events)
        return d


@dataclass(frozen=True)
class ScenarioResult:
    """A full timeline's reports plus cross-epoch aggregates.

    ``manifest`` is the run's :class:`~repro.obs.RunManifest` as a
    plain dict (git SHA, config hash, seed, wall/CPU time, peak RSS).
    It is excluded from equality — two runs of the same spec produce
    equal results with different manifests — and it is the **only**
    non-deterministic block in the JSON: strip it (or compare with
    :meth:`to_json` ``manifest=False``) when asserting byte-identity
    across runs.
    """

    name: str
    city: str
    seed: int
    epoch_hours: float
    flow_count: int
    initial_aps: int
    epochs: tuple[EpochReport, ...] = field(default=())
    manifest: dict | None = field(default=None, compare=False)

    @property
    def total_replans(self) -> int:
        return sum(e.replans for e in self.epochs)

    @property
    def min_delivery_rate(self) -> float:
        return min(e.delivery_rate for e in self.epochs)

    @property
    def final_delivery_rate(self) -> float:
        return self.epochs[-1].delivery_rate

    @property
    def max_islands(self) -> int:
        return max(e.islands for e in self.epochs)

    @property
    def total_deployed_aps(self) -> int:
        return sum(e.deployed_aps for e in self.epochs)

    def to_dict(self, manifest: bool = True) -> dict:
        out = {
            "name": self.name,
            "city": self.city,
            "seed": self.seed,
            "epoch_hours": self.epoch_hours,
            "flow_count": self.flow_count,
            "initial_aps": self.initial_aps,
            "epochs": [e.to_dict() for e in self.epochs],
            "aggregates": {
                "total_replans": self.total_replans,
                "min_delivery_rate": self.min_delivery_rate,
                "final_delivery_rate": self.final_delivery_rate,
                "max_islands": self.max_islands,
                "total_deployed_aps": self.total_deployed_aps,
            },
        }
        if manifest and self.manifest is not None:
            out["manifest"] = self.manifest
        return out

    def to_json(self, indent: int | None = None, manifest: bool = True) -> str:
        """Sorted-keys JSON.  Everything outside the ``manifest`` block
        is deterministic — byte-identical across runs; pass
        ``manifest=False`` for the fully deterministic core (what
        replay tests compare)."""
        return json.dumps(
            self.to_dict(manifest=manifest), indent=indent, sort_keys=True
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        """Rehydrate a result parsed from :meth:`to_json` output."""
        epochs = tuple(
            EpochReport(**{**e, "events": tuple(e["events"])})
            for e in data["epochs"]
        )
        return cls(
            name=data["name"],
            city=data["city"],
            seed=data["seed"],
            epoch_hours=data["epoch_hours"],
            flow_count=data["flow_count"],
            initial_aps=data["initial_aps"],
            epochs=epochs,
            manifest=data.get("manifest"),
        )


def format_scenario(result: ScenarioResult) -> str:
    """A compact human-readable epoch table (the JSON is the artifact)."""
    header = (
        f"scenario {result.name} on {result.city} (seed {result.seed}, "
        f"{len(result.epochs)} epochs x {result.epoch_hours:g} h, "
        f"{result.flow_count} flows)"
    )
    lines = [header, ""]
    lines.append(
        f"{'ep':>3} {'hour':>6} {'alive':>6} {'isl':>4} {'replan':>6} "
        f"{'deliv':>6} {'rate':>6}  events"
    )
    for e in result.epochs:
        lines.append(
            f"{e.epoch:>3} {e.hour:>6g} {e.alive_aps:>6} {e.islands:>4} "
            f"{e.replans:>6} {e.delivered_flows:>6} {e.delivery_rate:>6.2f}  "
            f"{', '.join(e.events) or '-'}"
        )
    lines.append("")
    lines.append(
        f"min delivery {result.min_delivery_rate:.2f}, "
        f"final {result.final_delivery_rate:.2f}, "
        f"max islands {result.max_islands}, "
        f"{result.total_replans} replans, "
        f"{result.total_deployed_aps} bridge APs deployed"
    )
    return "\n".join(lines)
