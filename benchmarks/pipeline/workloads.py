"""Workload inputs: everything the program is handed, made from the seed.

Each generator is a pure function of ``(seed, round index, sizes)`` and
the static facts of the world it targets (candidate building ids,
centroids, bounds).  All randomness runs on ``seed_for`` streams named
after the workload; nothing reads the wall clock or ``hash()``.  The
returned structures are plain JSON so ``--dump-workload`` can write
them and their blake2b is the workload's identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.experiments import seed_for
from repro.scenario import (
    CongestionSpec,
    Damage,
    DeployBridges,
    generate_scenario,
    make_scenario,
)
from repro.scenario.generate import ARCHETYPES
from repro.service import generate_trace

NAMES = ("flood_city", "metro_far", "postbox_rush", "scenario_sweep")
#: Round index of the warm-up round: its own seed stream, never measured.
WARMUP_INDEX = -1

@dataclass(frozen=True)
class Sizes:
    """Fixed op counts of one round per workload (``--quick`` = ~1/20)."""

    # flood_city: a round is one whole damage timeline.
    flood_blocks: int = 16
    flood_epochs: int = 30
    flood_msgs_per_epoch: int = 12
    # metro_far: a round is this many distinct pairs, three in four far.
    metro_cols: int = 142  # 142 x 142 lots = the metro-20k preset
    metro_msgs: int = 40
    # postbox_rush: one trace per run, replayed a segment per round.
    rush_phones: int = 12000
    rush_segment: int = 6000
    # scenario_sweep: a round is every archetype once, on free air.
    sweep_epochs: int | None = None  # the archetype's default (8 to 10)
    sweep_flows: int = 16
    sweep_mobile: int = 4


FULL = Sizes()
QUICK = Sizes(
    flood_blocks=6,
    flood_epochs=6,
    flood_msgs_per_epoch=6,
    metro_cols=40,
    metro_msgs=8,
    rush_phones=300,
    rush_segment=600,
    sweep_epochs=7,
    sweep_flows=4,
    sweep_mobile=1,
)

#: A far pair is at least this share of the city diagonal apart.
FAR_SHARE = 0.70
#: The flood front ends up covering this share of the city's extent.
FLOOD_FINAL_SHARE = 0.20
CONGESTION_WINDOW_S = 0.5


def _rng(seed: int, index: int, stream: str) -> random.Random:
    return random.Random(seed_for(seed, index, stream))


# ----------------------------------------------------------------------
# flood_city
# ----------------------------------------------------------------------
def flood_city_round(
    seed: int,
    index: int,
    sizes: Sizes,
    bounds: tuple[float, float, float, float],
    candidates: list[int],
) -> dict:
    """One damage timeline and its messages.

    Every epoch widens a flood band from a seeded edge (the shape
    ``scenario.generate`` floods with) and every other epoch adds a
    seeded damage disc (its earthquake shape).  Half of an epoch's
    messages are new pairs, the other half repeat one of those pairs,
    so routing sees a version bump per epoch *and* cache hits.
    """
    damage = _rng(seed, index, "flood_city:damage")
    pairs = _rng(seed, index, "flood_city:pairs")
    min_x, min_y, max_x, max_y = bounds
    extent = max(max_x - min_x, max_y - min_y)
    pad = 0.1 * extent
    step = FLOOD_FINAL_SHARE * extent / sizes.flood_epochs
    edge = damage.choice(["south", "west", "north", "east"])
    fresh = sizes.flood_msgs_per_epoch - sizes.flood_msgs_per_epoch // 2
    epochs = []
    for e in range(sizes.flood_epochs):
        reach = (e + 1) * step
        if edge == "south":
            band = [min_x - pad, min_y - pad, max_x + pad, min_y + reach]
        elif edge == "north":
            band = [min_x - pad, max_y - reach, max_x + pad, max_y + pad]
        elif edge == "west":
            band = [min_x - pad, min_y - pad, min_x + reach, max_y + pad]
        else:
            band = [max_x - reach, min_y - pad, max_x + pad, max_y + pad]
        discs = []
        if e % 2 == 1:
            discs.append(
                [
                    damage.uniform(min_x, max_x),
                    damage.uniform(min_y, max_y),
                    damage.uniform(0.025, 0.07) * extent,
                ]
            )
        first = [pairs.sample(candidates, 2) for _ in range(fresh)]
        repeats = [
            list(pairs.choice(first))
            for _ in range(sizes.flood_msgs_per_epoch - fresh)
        ]
        epochs.append({"band": band, "discs": discs, "pairs": first + repeats})
    return {"workload": "flood_city", "edge": edge, "epochs": epochs}


# ----------------------------------------------------------------------
# metro_far
# ----------------------------------------------------------------------
def metro_far_round(
    seed: int,
    index: int,
    sizes: Sizes,
    candidates: list[int],
    centroids: dict[int, tuple[float, float]],
    diagonal: float,
) -> dict:
    """Distinct pairs: one uniform, then three at least FAR_SHARE of the
    diagonal apart.

    Far pairs cost about three times a uniform one, so an even mix puts
    the median in the empty stretch between the two clusters, where it
    jumps from seed to seed; at three in four it sits inside the far
    cluster and the p95 in that cluster's tail.
    """
    rng = _rng(seed, index, "metro_far:pairs")
    threshold = FAR_SHARE * diagonal
    seen: set[tuple[int, int]] = set()
    pairs: list[list[int]] = []
    while len(pairs) < sizes.metro_msgs:
        far = len(pairs) % 4 != 0
        s, d = rng.sample(candidates, 2)
        if (s, d) in seen:
            continue
        if far:
            sx, sy = centroids[s]
            dx, dy = centroids[d]
            if math.hypot(sx - dx, sy - dy) < threshold:
                continue
        seen.add((s, d))
        pairs.append([s, d])
    return {"workload": "metro_far", "pairs": pairs}


# ----------------------------------------------------------------------
# postbox_rush
# ----------------------------------------------------------------------
def postbox_rush_trace(seed: int, sizes: Sizes):
    """The request trace of one run (``LoadTrace``; JSON via ``to_json``)."""
    return generate_trace(make_scenario("river-flood", seed=seed), phones=sizes.rush_phones)


# ----------------------------------------------------------------------
# scenario_sweep
# ----------------------------------------------------------------------
def scenario_sweep_round(seed: int, index: int, sizes: Sizes) -> list:
    """The round's specs: every archetype once, on one drawn world seed."""
    return _sweep_specs(seed, index, sizes)[1]


def scenario_sweep_congested(seed: int, index: int, sizes: Sizes):
    """The round's flood timeline again, its flows sharing the air."""
    world_seed, _ = _sweep_specs(seed, index, sizes)
    return generate_scenario(
        "flood",
        world_seed,
        congestion=CongestionSpec(CONGESTION_WINDOW_S),
        **_sweep_common(sizes),
    )


def _sweep_common(sizes: Sizes) -> dict:
    return dict(
        city="gridport",
        epochs=sizes.sweep_epochs,
        flows=sizes.sweep_flows,
        mobile_flows=sizes.sweep_mobile,
    )


def _sweep_specs(seed: int, index: int, sizes: Sizes) -> tuple[int, list]:
    for attempt in range(64):
        world_seed = seed_for(seed, index, f"scenario_sweep:world:{attempt}") % 2**31
        specs = [
            generate_scenario(a, world_seed, **_sweep_common(sizes)) for a in ARCHETYPES
        ]
        if not any(_same_epoch_mutations(spec) for spec in specs):
            return world_seed, specs
    raise RuntimeError("no usable scenario_sweep world seed in 64 draws")


def _same_epoch_mutations(spec) -> bool:
    """Two map-mutating events in one epoch: such a draw is skipped.

    ``ScenarioDriver`` gathers an epoch's removals and bridge links per
    event and patches once, so a building under two same-epoch damage
    areas is removed twice, and a bridge deployed in a damage epoch can
    link a building the same patch removes; ``BuildingGraph.patch``
    raises ``KeyError`` on both (seen with two aftershocks drawn into
    one epoch, and on short timelines).  The benchmark only runs
    workloads on which no operation fails; the defect is the driver's.
    """
    epochs = [ev.epoch for ev in spec.events if isinstance(ev, (Damage, DeployBridges))]
    return len(epochs) != len(set(epochs))
