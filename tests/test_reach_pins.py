"""Exact pins for every artifact that reads mesh reachability.

Hop counts, shortest paths, components and masked (honest-path) reach
feed the security, baselines, fig5, bridging, replication and
longevity artifacts.  Each pin is ``config_hash`` of the artifact's
formatted table (or its points), so any change to which pairs count as
reachable, which path a targeted attacker walks or how many hops the
best unicast takes moves a hash.
"""

import random

import pytest

from repro.experiments import (
    build_world,
    format_attacks,
    format_baselines,
    format_bridging,
    format_compromise,
    format_fig5,
    format_replication,
    replicate_fig6,
    run_attack_comparison,
    run_baseline_comparison,
    run_bridging,
    run_compromise_sweep,
    run_fig5,
)
from repro.mesh import assign_power_profiles, longevity_curve
from repro.obs import config_hash


def _longevity():
    graph = build_world("gridport", seed=0).graph
    profiles = assign_power_profiles(
        graph.aps, random.Random(9), battery_fraction=0.5, generator_fraction=0.05
    )
    points = longevity_curve(
        graph, profiles, hours=(0.0, 4.0, 12.0, 24.0), pairs=80, rng=random.Random(3)
    )
    return [(p.hours, p.alive_aps, p.total_aps, p.reachability) for p in points]


ARTIFACTS = {
    "compromise": (
        lambda: format_compromise(run_compromise_sweep("gridport", seed=0)),
        "3f4b5e36b7d2f960",
    ),
    # The only consumer of APGraph.shortest_path (targeted compromise).
    "attacks": (
        lambda: format_attacks(
            run_attack_comparison("suburbia", budget=30, pairs=20, seed=0)
        ),
        "ca6aa08876aac798",
    ),
    # AODV, the oracle and min_hops_to_building.
    "baselines": (
        lambda: format_baselines(run_baseline_comparison("gridport", seed=0, pairs=30)),
        "23dcc5c04326eeed",
    ),
    "fig5": (lambda: format_fig5(run_fig5(seed=0)), "32cd115c9996e9b0"),
    "bridging": (
        lambda: format_bridging(
            [run_bridging(city, seed=0) for city in ("riverton", "capitolia")]
        ),
        "c9d5f4f18ec52b37",
    ),
    "replication": (
        lambda: format_replication([replicate_fig6("gridport", seeds=(0, 1))]),
        "0f76da759628eba7",
    ),
    "longevity": (_longevity, "bcc557158a3f1bfe"),
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_reachability_artifact_pinned(name):
    build, pin = ARTIFACTS[name]
    assert config_hash(build()) == pin
