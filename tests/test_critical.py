"""Tests for articulation/bridge analysis and the attack comparison."""

import random

import pytest

from repro.city import make_city
from repro.experiments import (
    build_world,
    format_attacks,
    run_attack_comparison,
)
from repro.geometry import Point
from repro.mesh import (
    APGraph,
    AccessPoint,
    articulation_points,
    bridge_links,
    place_aps,
)


def chain(n=5, spacing=40.0):
    return APGraph(
        [AccessPoint(i, Point(i * spacing, 0.0), i + 1) for i in range(n)],
        transmission_range=50,
    )


def cycle(n=6, radius=60.0):
    import math

    aps = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        aps.append(
            AccessPoint(i, Point(radius * math.cos(angle), radius * math.sin(angle)), i + 1)
        )
    return APGraph(aps, transmission_range=radius * 2 * math.sin(math.pi / n) + 1)


class TestArticulation:
    def test_chain_interior_nodes(self):
        g = chain(5)
        assert articulation_points(g) == {1, 2, 3}

    def test_cycle_has_none(self):
        g = cycle(6)
        # Every node has exactly its two ring neighbours.
        assert all(g.degree(i) == 2 for i in range(6))
        assert articulation_points(g) == set()

    def test_single_node(self):
        g = APGraph([AccessPoint(0, Point(0, 0), 1)])
        assert articulation_points(g) == set()

    def test_two_components(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 2),
            AccessPoint(2, Point(80, 0), 3),
            AccessPoint(3, Point(500, 0), 4),
            AccessPoint(4, Point(540, 0), 5),
        ]
        g = APGraph(aps, transmission_range=50)
        assert articulation_points(g) == {1}

    def test_star_center(self):
        aps = [AccessPoint(0, Point(0, 0), 1)]
        for i, (dx, dy) in enumerate([(45, 0), (-45, 0), (0, 45), (0, -45)], start=1):
            aps.append(AccessPoint(i, Point(dx, dy), i + 1))
        g = APGraph(aps, transmission_range=50)
        assert articulation_points(g) == {0}

    def test_matches_removal_semantics(self):
        """Brute-force check: removing an articulation point increases
        the component count; removing a non-articulation point does not."""
        city = make_city("suburbia", seed=2)
        g = APGraph(place_aps(city, rng=random.Random(2))[:200], transmission_range=50)
        points = articulation_points(g)
        base_components = len(g.components())

        def components_without(skip):
            seen = set()
            count = 0
            for ap in g.aps:
                if ap.id == skip or ap.id in seen:
                    continue
                count += 1
                stack = [ap.id]
                seen.add(ap.id)
                while stack:
                    u = stack.pop()
                    for v in g.neighbors(u):
                        if v != skip and v not in seen:
                            seen.add(v)
                            stack.append(v)
            return count

        sample = list(points)[:5] + [
            i for i in range(len(g.aps)) if i not in points
        ][:5]
        for ap_id in sample:
            grew = components_without(ap_id) > base_components
            assert grew == (ap_id in points), ap_id


class TestBridges:
    def test_chain_all_edges(self):
        g = chain(4)
        assert bridge_links(g) == {(0, 1), (1, 2), (2, 3)}

    def test_cycle_none(self):
        assert bridge_links(cycle(6)) == set()

    def test_dense_downtown_is_robust(self):
        """The paper's dense-downtown case has (almost) no cut APs."""
        city = make_city("gridport", seed=1)
        g = APGraph(place_aps(city, rng=random.Random(1)))
        assert len(articulation_points(g)) / len(g.aps) < 0.02


class TestAttackComparison:
    @pytest.fixture(scope="class")
    def outcomes(self):
        world = build_world("suburbia", seed=0)
        return run_attack_comparison(world=world, budget=20, pairs=20, seed=0)

    def test_three_strategies(self, outcomes):
        assert {o.strategy for o in outcomes} == {"random", "targeted", "articulation"}
        assert all(o.budget == 20 for o in outcomes)

    def test_rates_valid(self, outcomes):
        for o in outcomes:
            assert 0.0 <= o.rate <= 1.0
            assert o.attempted > 5

    def test_format(self, outcomes):
        out = format_attacks(outcomes)
        assert "strategy" in out
        assert "targeted" in out
