"""Generative disaster scenarios: seeded archetype timelines.

Where :mod:`repro.scenario.library` hand-places one canned timeline per
failure mode, this module *generates* them: an archetype (earthquake,
flood, brownout, compound) plus a seed yields a fully parameterised
:class:`~repro.scenario.model.ScenarioSpec` whose geometry is derived
from the target city's actual bounds — damage rings around a drawn
epicenter, a flood front advancing band by band from a drawn edge,
brownout waves rolling over a block partition.  Equal (archetype,
seed, parameters) produce byte-identical specs (compare
:func:`spec_digest`), and the specs run through the unchanged
:class:`~repro.scenario.driver.ScenarioDriver`.

The generator is also the fuzzer: :func:`fuzz_specs` draws seeded
random timelines across archetypes, mobility, and congestion, and
:func:`check_invariants` scores a driver result against the properties
every timeline must satisfy — the CI smoke gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from ..city import make_city
from ..experiments import WorldSpec, seed_for
from ..geometry import Point, Polygon
from .events import (
    APChurn,
    Damage,
    DeployBridges,
    GridOutage,
    PowerRestored,
    ScenarioEvent,
)
from .model import CongestionSpec, ScenarioResult, ScenarioSpec

#: The generator's vocabulary, in presentation order.
ARCHETYPES: tuple[str, ...] = ("earthquake", "flood", "brownout", "compound")

#: Default timeline length per archetype (overridable per call).
_DEFAULT_EPOCHS = {
    "earthquake": 8,
    "flood": 8,
    "brownout": 8,
    "compound": 10,
}


def _disc(center: Point, radius: float, sides: int = 16) -> Polygon:
    """A regular polygon approximating a damage disc."""
    return Polygon(
        tuple(
            Point(
                center.x + radius * math.cos(2.0 * math.pi * i / sides),
                center.y + radius * math.sin(2.0 * math.pi * i / sides),
            )
            for i in range(sides)
        )
    )


def _rect(x0: float, y0: float, x1: float, y1: float) -> Polygon:
    return Polygon(
        (Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1))
    )


def _earthquake_events(
    rng: random.Random,
    bounds: tuple[float, float, float, float],
    epochs: int,
    intensity: float,
) -> tuple[list[ScenarioEvent], str]:
    """Main shock disc at the epicenter, aftershocks, churn, bridges."""
    min_x, min_y, max_x, max_y = bounds
    extent = max(max_x - min_x, max_y - min_y)
    # Epicenter in the central half: a quake on the far corner of the
    # map levels nothing and generates a degenerate timeline.
    epicenter = Point(
        rng.uniform(min_x + 0.25 * extent, max_x - 0.25 * extent),
        rng.uniform(min_y + 0.25 * extent, max_y - 0.25 * extent),
    )
    main_radius = 0.22 * extent * intensity
    events: list[ScenarioEvent] = [
        Damage(epoch=0, area=_disc(epicenter, main_radius))
    ]
    for _ in range(rng.randint(1, 2)):
        offset = Point(
            epicenter.x + rng.uniform(-0.3, 0.3) * extent,
            epicenter.y + rng.uniform(-0.3, 0.3) * extent,
        )
        radius = main_radius * rng.uniform(0.4, 0.7)
        epoch = rng.randint(1, max(1, min(epochs - 2, 4)))
        events.append(Damage(epoch=epoch, area=_disc(offset, radius)))
    churn_rate = min(0.3, 0.1 * intensity)
    if epochs >= 3 and churn_rate > 0:
        events.append(
            APChurn(
                epoch=1,
                until_epoch=epochs - 2,
                rate=churn_rate,
                down_epochs=rng.randint(1, 2),
            )
        )
    if epochs >= 4:
        events.append(DeployBridges(epoch=epochs - 2, min_island_size=5))
    description = (
        f"generated quake: main shock r={main_radius:.0f} m at "
        f"({epicenter.x:.0f}, {epicenter.y:.0f}), aftershocks, "
        f"{churn_rate:.0%} churn, bridges at epoch {epochs - 2}"
    )
    return events, description


def _flood_events(
    rng: random.Random,
    bounds: tuple[float, float, float, float],
    epochs: int,
    intensity: float,
) -> tuple[list[ScenarioEvent], str]:
    """A flood front advancing one band per epoch from a drawn edge."""
    min_x, min_y, max_x, max_y = bounds
    extent = max(max_x - min_x, max_y - min_y)
    pad = 0.1 * extent
    step = 0.12 * extent * intensity
    edge = rng.choice(["south", "west", "north", "east"])
    front_epochs = max(1, min(epochs - 3, rng.randint(2, 3)))
    events: list[ScenarioEvent] = []
    for k in range(front_epochs):
        lo, hi = k * step, (k + 1) * step
        if edge == "south":
            band = _rect(min_x - pad, min_y + lo, max_x + pad, min_y + hi)
        elif edge == "north":
            band = _rect(min_x - pad, max_y - hi, max_x + pad, max_y - lo)
        elif edge == "west":
            band = _rect(min_x + lo, min_y - pad, min_x + hi, max_y + pad)
        else:
            band = _rect(max_x - hi, min_y - pad, max_x - lo, max_y + pad)
        events.append(Damage(epoch=1 + k, area=band))
    bridge_epoch = min(epochs - 1, 2 + front_epochs)
    events.append(DeployBridges(epoch=bridge_epoch, min_island_size=5))
    description = (
        f"generated flood: front advances {step:.0f} m/epoch from the "
        f"{edge} for {front_epochs} epochs; bridges at epoch {bridge_epoch}"
    )
    return events, description


def _brownout_events(
    rng: random.Random,
    bounds: tuple[float, float, float, float],
    epochs: int,
    intensity: float,
) -> tuple[list[ScenarioEvent], str]:
    """Outage waves rolling over a shuffled 2x2 block partition."""
    min_x, min_y, max_x, max_y = bounds
    pad = 0.1 * max(max_x - min_x, max_y - min_y)
    mid_x = (min_x + max_x) / 2.0
    mid_y = (min_y + max_y) / 2.0
    blocks = [
        _rect(min_x - pad, min_y - pad, mid_x, mid_y),
        _rect(mid_x, min_y - pad, max_x + pad, mid_y),
        _rect(min_x - pad, mid_y, mid_x, max_y + pad),
        _rect(mid_x, mid_y, max_x + pad, max_y + pad),
    ]
    rng.shuffle(blocks)
    # Higher intensity browns blocks out for longer (deeper battery
    # drain before restoration).
    dwell = max(2, min(epochs - 1, round(2 * intensity)))
    events: list[ScenarioEvent] = []
    for i, block in enumerate(blocks):
        start = min(i * 2, epochs - 1)
        events.append(GridOutage(epoch=start, region=block))
        if start + dwell < epochs:
            events.append(PowerRestored(epoch=start + dwell, region=block))
    description = (
        f"generated brownout: shuffled 2x2 block waves, {dwell} epochs "
        "dark each"
    )
    return events, description


def _compound_events(
    rng: random.Random,
    bounds: tuple[float, float, float, float],
    epochs: int,
    intensity: float,
) -> tuple[list[ScenarioEvent], str]:
    """Quake, then grid collapse, then a flood band: the bad day."""
    min_x, min_y, max_x, max_y = bounds
    extent = max(max_x - min_x, max_y - min_y)
    epicenter = Point(
        rng.uniform(min_x + 0.3 * extent, max_x - 0.3 * extent),
        rng.uniform(min_y + 0.3 * extent, max_y - 0.3 * extent),
    )
    radius = 0.18 * extent * intensity
    half = rng.choice(["lower", "upper"])
    pad = 0.1 * extent
    mid_y = (min_y + max_y) / 2.0
    outage_region = (
        _rect(min_x - pad, min_y - pad, max_x + pad, mid_y)
        if half == "lower"
        else _rect(min_x - pad, mid_y, max_x + pad, max_y + pad)
    )
    band_lo = rng.uniform(0.15, 0.45) * extent
    band = _rect(
        min_x - pad,
        min_y + band_lo,
        max_x + pad,
        min_y + band_lo + 0.15 * extent * intensity,
    )
    flood_epoch = min(epochs - 2, rng.randint(3, 5))
    events: list[ScenarioEvent] = [
        Damage(epoch=0, area=_disc(epicenter, radius)),
        GridOutage(epoch=1, region=outage_region),
        APChurn(
            epoch=1,
            until_epoch=epochs - 2,
            rate=min(0.25, 0.08 * intensity),
            down_epochs=1,
        ),
        Damage(epoch=flood_epoch, area=band),
        DeployBridges(epoch=epochs - 2, min_island_size=5),
        PowerRestored(epoch=epochs - 1, region=outage_region),
    ]
    description = (
        f"generated compound: quake r={radius:.0f} m, {half}-half grid "
        f"collapse, flood band at epoch {flood_epoch}, bridges near the end"
    )
    return events, description


_GENERATORS = {
    "earthquake": _earthquake_events,
    "flood": _flood_events,
    "brownout": _brownout_events,
    "compound": _compound_events,
}


def generate_scenario(
    archetype: str,
    seed: int,
    *,
    city: str = "gridport",
    epochs: int | None = None,
    flows: int = 16,
    intensity: float = 1.0,
    mobile_flows: int = 0,
    congestion: CongestionSpec | None = None,
) -> ScenarioSpec:
    """Generate one seeded archetype timeline as a runnable spec.

    All randomness is keyed on ``(archetype, city, seed)`` via
    :func:`~repro.experiments.seed_for` streams, so equal arguments
    produce byte-identical specs (and therefore, through the driver,
    byte-identical results).  The geometry
    comes from the actual city bounds — the same archetype transfers
    to any preset city.

    Args:
        archetype: one of :data:`ARCHETYPES`.
        seed: base seed; also the world seed.
        city: preset city name (see :func:`repro.city.make_city`).
        epochs: timeline length (archetype default when ``None``).
        flows: static flows per epoch.
        intensity: scales damage radii, flood steps, churn, and
            brownout dwell; must be in ``(0, 3]``.
        mobile_flows: walkers added on top of the static flows.
        congestion: shared-air coupling for the flows (``None`` keeps
            private-air broadcasts).

    Raises:
        KeyError: for an unknown archetype.
        ValueError: for an out-of-range intensity or a timeline too
            short for the archetype.
    """
    try:
        generator = _GENERATORS[archetype]
    except KeyError:
        known = ", ".join(ARCHETYPES)
        raise KeyError(
            f"unknown archetype {archetype!r}; known archetypes: {known}"
        ) from None
    if not 0 < intensity <= 3:
        raise ValueError(f"intensity must be in (0, 3], got {intensity}")
    if epochs is None:
        epochs = _DEFAULT_EPOCHS[archetype]
    if epochs < 4:
        raise ValueError("generated timelines need at least 4 epochs")
    rng = random.Random(
        seed_for(seed, 0, f"scenario-gen:{archetype}:{city}")
    )
    bounds = make_city(city, seed=seed).bounds()
    events, description = generator(rng, bounds, epochs, intensity)
    return ScenarioSpec(
        name=f"gen-{archetype}-{seed}",
        world=WorldSpec(city, seed=seed),
        epochs=epochs,
        epoch_hours=2.0,
        events=tuple(events),
        flows=flows,
        mobile_flows=mobile_flows,
        congestion=congestion,
        description=description,
    )


def spec_digest(spec: ScenarioSpec) -> str:
    """A short stable digest of the full spec (its identity on disk).

    Computed over the sorted-keys JSON of
    :meth:`~repro.scenario.model.ScenarioSpec.to_dict`, so equal specs
    digest equal and any parameter change shows.
    """
    blob = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def fuzz_specs(
    count: int, seed: int, *, city: str = "gridport"
) -> list[ScenarioSpec]:
    """Draw ``count`` seeded random timelines across the full surface.

    Each draw varies the archetype, intensity, flow count, mobility,
    and congestion coupling — the fuzzer exercises every generator
    path plus both delivery models.  Deterministic in ``(count, seed,
    city)``.
    """
    if count < 1:
        raise ValueError("need at least one fuzz draw")
    specs: list[ScenarioSpec] = []
    for i in range(count):
        rng = random.Random(seed_for(seed, i, "scenario-fuzz"))
        archetype = rng.choice(ARCHETYPES)
        congestion = (
            CongestionSpec(window_s=rng.choice([0.0, 0.5, 2.0]))
            if rng.random() < 0.4
            else None
        )
        specs.append(
            generate_scenario(
                archetype,
                seed_for(seed, i, "scenario-fuzz:world") % 2**31,
                city=city,
                flows=rng.randint(8, 16),
                intensity=rng.uniform(0.5, 1.8),
                mobile_flows=rng.choice([0, 0, 2, 4]),
                congestion=congestion,
            )
        )
    return specs


def check_invariants(
    result: ScenarioResult, spec: ScenarioSpec
) -> list[str]:
    """Driver-output properties every timeline must satisfy.

    Returns human-readable violations (empty = clean):

    - delivery rate in ``[0, 1]`` and consistent with the flow counts;
    - the alive set never exceeds the AP set, and the largest island
      never exceeds the alive set;
    - at least one island is reported whenever the largest one clears
      the spec's ``min_island_size``;
    - epoch numbering and hours follow the grid;
    - zero replans on non-mutating epochs after the first — but only
      for immobile specs (a walker that moved forces a replan without
      any map mutation).
    """
    violations: list[str] = []
    total_flows = spec.flows + spec.mobile_flows
    for report in result.epochs:
        e = f"epoch {report.epoch}"
        if not 0.0 <= report.delivery_rate <= 1.0:
            violations.append(
                f"{e}: delivery rate {report.delivery_rate} outside [0, 1]"
            )
        if report.flows != total_flows:
            violations.append(
                f"{e}: {report.flows} flows reported, spec has {total_flows}"
            )
        if not (
            report.delivered_flows
            <= report.simulated_flows
            <= report.flows
        ):
            violations.append(
                f"{e}: delivered {report.delivered_flows} <= simulated "
                f"{report.simulated_flows} <= flows {report.flows} violated"
            )
        if not 0 <= report.alive_aps <= report.total_aps:
            violations.append(
                f"{e}: alive {report.alive_aps} outside [0, total "
                f"{report.total_aps}]"
            )
        if report.largest_island > report.alive_aps:
            violations.append(
                f"{e}: largest island {report.largest_island} exceeds "
                f"alive set {report.alive_aps}"
            )
        if report.largest_island >= spec.min_island_size and report.islands < 1:
            violations.append(
                f"{e}: largest island {report.largest_island} clears "
                f"min size {spec.min_island_size} but 0 islands reported"
            )
        if report.hour != report.epoch * spec.epoch_hours:
            violations.append(
                f"{e}: hour {report.hour} off the "
                f"{spec.epoch_hours:g}-hour grid"
            )
        if (
            spec.mobile_flows == 0
            and report.epoch > 0
            and not report.mutated
            and report.replans != 0
        ):
            violations.append(
                f"{e}: {report.replans} replans on a non-mutating epoch"
            )
    if [r.epoch for r in result.epochs] != list(range(spec.epochs)):
        violations.append("epoch numbering is not 0..epochs-1")
    return violations
