"""Tests for compromise models and resilient routing."""

import random

import pytest

import repro.security.resilient as resilient_module
from repro.city import make_city
from repro.core import BuildingRouter
from repro.geometry import Point
from repro.mesh import APGraph, AccessPoint, place_aps
from repro.security import (
    honest_path_exists,
    random_compromise,
    resilient_send,
    targeted_compromise,
)

from .reference import reference_dijkstra


def chain(n=6, spacing=40.0):
    aps = [AccessPoint(i, Point(i * spacing, 0.0), i + 1) for i in range(n)]
    return APGraph(aps, transmission_range=50)


class TestCompromiseModels:
    def test_random_fraction_bounds(self):
        g = chain(10)
        with pytest.raises(ValueError):
            random_compromise(g, -0.1, random.Random(0))
        with pytest.raises(ValueError):
            random_compromise(g, 1.1, random.Random(0))

    def test_random_fraction_count(self):
        g = chain(10)
        assert len(random_compromise(g, 0.0, random.Random(0))) == 0
        assert len(random_compromise(g, 0.5, random.Random(0))) == 5
        assert len(random_compromise(g, 1.0, random.Random(0))) == 10

    def test_targeted_compromise_hits_cut_vertex(self):
        g = chain(5)
        # All paths 0 -> building 5 pass through APs 1-3.
        comp = targeted_compromise(g, count=1, sample_pairs=[(0, 5)])
        assert comp <= {1, 2, 3}
        assert len(comp) == 1

    def test_targeted_validation(self):
        with pytest.raises(ValueError):
            targeted_compromise(chain(), -1, [])


class TestHonestPathExists:
    def test_clear_path(self):
        g = chain(5)
        assert honest_path_exists(g, 0, 5, frozenset())

    def test_cut_vertex_blocks(self):
        g = chain(5)
        assert not honest_path_exists(g, 0, 5, frozenset({2}))

    def test_compromised_source(self):
        g = chain(5)
        assert not honest_path_exists(g, 0, 5, frozenset({0}))

    def test_compromised_destination_aps(self):
        g = chain(5)
        assert not honest_path_exists(g, 0, 5, frozenset({4}))

    def test_source_in_destination(self):
        g = chain(5)
        assert honest_path_exists(g, 0, 1, frozenset())

    def test_alternate_path_found(self):
        # A 4-cycle: 0-1-3 and 0-2-3.
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 30), 2),
            AccessPoint(2, Point(40, -30), 3),
            AccessPoint(3, Point(80, 0), 4),
        ]
        g = APGraph(aps, transmission_range=50)
        assert honest_path_exists(g, 0, 4, frozenset({1}))
        assert not honest_path_exists(g, 0, 4, frozenset({1, 2}))


class TestResilientSend:
    @pytest.fixture(scope="class")
    def world(self):
        city = make_city("gridport", seed=5)
        aps = place_aps(city, rng=random.Random(5))
        graph = APGraph(aps)
        router = BuildingRouter(city)
        return city, graph, router

    def test_validation(self, world):
        city, graph, router = world
        with pytest.raises(ValueError):
            resilient_send(
                city, graph, router, 0, 1, random.Random(0), frozenset(), max_attempts=0
            )
        with pytest.raises(ValueError):
            resilient_send(
                city, graph, router, 0, 1, random.Random(0), frozenset(), width_growth=0.5
            )

    def test_clean_network_first_attempt(self, world):
        city, graph, router = world
        ids = [b.id for b in city.buildings if graph.aps_in_building(b.id)]
        src_ap = graph.aps_in_building(ids[0])[0]
        report = resilient_send(
            city, graph, router, src_ap, ids[30], random.Random(0), frozenset()
        )
        assert report.delivered
        assert report.attempts == 1

    def test_retries_recover_from_compromise(self, world):
        """Across several compromised scenarios, retries deliver at
        least as often as single-shot sends (and strictly more in
        aggregate)."""
        city, graph, router = world
        ids = [b.id for b in city.buildings if graph.aps_in_building(b.id)]
        rng = random.Random(2)
        single = multi = honest = 0
        for trial in range(12):
            s, d = rng.sample(ids, 2)
            compromised = random_compromise(graph, 0.25, random.Random(trial))
            src_candidates = [
                a for a in graph.aps_in_building(s) if a not in compromised
            ]
            if not src_candidates:
                continue
            src_ap = src_candidates[0]
            if not honest_path_exists(graph, src_ap, d, compromised):
                continue
            honest += 1
            one = resilient_send(
                city, graph, router, src_ap, d, random.Random(trial), compromised,
                max_attempts=1,
            )
            many = resilient_send(
                city, graph, router, src_ap, d, random.Random(trial), compromised,
                max_attempts=4,
            )
            single += one.delivered
            multi += many.delivered
            if one.delivered:
                assert many.delivered  # retries never lose a delivery
        assert honest > 3
        assert multi >= single

    def test_transmissions_accumulate(self, world):
        city, graph, router = world
        ids = [b.id for b in city.buildings if graph.aps_in_building(b.id)]
        src_ap = graph.aps_in_building(ids[0])[0]
        # Compromise every AP except the source's own building: no
        # delivery, but each attempt must burn transmissions.
        compromised = frozenset(
            ap.id for ap in graph.aps if ap.building_id != ids[0]
        )
        report = resilient_send(
            city, graph, router, src_ap, ids[40], random.Random(0), compromised,
            max_attempts=3,
        )
        assert not report.delivered
        assert report.attempts == 3
        assert report.total_transmissions >= 3

    @pytest.mark.parametrize("dst_index", [10, 40, 70])
    def test_retries_plan_the_penalised_shortest_route(self, world, monkeypatch, dst_index):
        """Every attempt plans the route a plain Dijkstra finds once each
        edge touching an earlier attempt's relays costs 8 times more."""
        city, graph, router = world
        ids = [b.id for b in city.buildings if graph.aps_in_building(b.id)]
        src, dst = ids[0], ids[dst_index]
        planned = []
        compress = resilient_module.compress_route

        def spy(centroids, width):
            planned.append(list(centroids))
            return compress(centroids, width=width)

        monkeypatch.setattr(resilient_module, "compress_route", spy)
        compromised = frozenset(ap.id for ap in graph.aps if ap.building_id != src)
        report = resilient_send(
            city, graph, router, graph.aps_in_building(src)[0], dst,
            random.Random(0), compromised, max_attempts=3,
        )
        assert report.attempts == 3 and len(planned) == 3
        g = router.graph
        penalised = set()

        def detour(u):
            return {
                v: w * 8.0 if u in penalised or v in penalised else w
                for v, w in g.neighbors(u).items()
            }

        routes = []
        for centroids in planned:
            expected, _ = reference_dijkstra(detour, src, dst)
            assert centroids == [g.centroid(b) for b in expected]
            routes.append(expected)
            penalised.update(expected[1:-1])
        assert routes[1] != routes[0]
