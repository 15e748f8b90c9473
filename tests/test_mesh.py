"""Tests for AP placement, the AP graph, islands, and bridge planning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.city import Building, City, make_city, river_city
from repro.geometry import Point, Polygon
from repro.mesh import (
    APGraph,
    AccessPoint,
    apply_bridges,
    bridge_all_islands,
    closest_gap,
    find_islands,
    place_aps,
    plan_bridge,
)
from repro.mesh.reach import hops_to

from .reference import reference_unit_disk


def line_of_aps(xs, building_id=1):
    return [AccessPoint(i, Point(x, 0.0), building_id) for i, x in enumerate(xs)]


def two_building_city(gap: float):
    """Two 20x20 buildings separated by ``gap`` metres edge to edge."""
    return City(
        "pair",
        [
            Building(1, Polygon.rectangle(0, 0, 20, 20)),
            Building(2, Polygon.rectangle(20 + gap, 0, 40 + gap, 20)),
        ],
    )


class TestPlacement:
    def test_density_validation(self):
        with pytest.raises(ValueError):
            place_aps(two_building_city(10), density=0)

    def test_expected_count_scales_with_density(self):
        city = two_building_city(10)  # total building area 800 m2
        rng = random.Random(0)
        aps = place_aps(city, density=1 / 40, rng=rng)  # expect ~20
        assert 10 <= len(aps) <= 30

    def test_aps_inside_their_building(self):
        city = make_city("gridport", seed=0)
        aps = place_aps(city, rng=random.Random(0))
        for ap in aps[:200]:
            assert city.building(ap.building_id).polygon.contains(ap.position)

    def test_ids_contiguous(self):
        city = make_city("gridport", seed=0)
        aps = place_aps(city, rng=random.Random(0))
        assert [ap.id for ap in aps] == list(range(len(aps)))

    def test_deterministic_with_seed(self):
        city = two_building_city(10)
        a = place_aps(city, rng=random.Random(7))
        b = place_aps(city, rng=random.Random(7))
        assert a == b

    def test_fractional_expectation(self):
        """A building smaller than 1/density still gets APs sometimes."""
        city = City("small", [Building(1, Polygon.rectangle(0, 0, 10, 10))])  # 100 m2
        total = 0
        for seed in range(200):
            total += len(place_aps(city, density=1 / 200, rng=random.Random(seed)))
        # Expectation is 0.5 per trial -> ~100 out of 200.
        assert 60 <= total <= 140


class TestAPGraph:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            APGraph(aps=[], transmission_range=0)

    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(ValueError):
            APGraph(aps=[AccessPoint(5, Point(0, 0), 1)])

    def test_adjacency_unit_disk(self):
        g = APGraph(line_of_aps([0, 40, 80, 200]), transmission_range=50)
        assert set(g.neighbors(0)) == {1}
        assert set(g.neighbors(1)) == {0, 2}
        assert g.neighbors(3) == []
        assert g.degree(1) == 2

    def test_edge_count(self):
        g = APGraph(line_of_aps([0, 40, 80]), transmission_range=50)
        assert g.edge_count() == 2

    def test_inclusive_range_boundary(self):
        g = APGraph(line_of_aps([0, 50]), transmission_range=50)
        assert g.neighbors(0) == [1]

    def test_hop_distance(self):
        g = APGraph(line_of_aps([0, 40, 80, 120]), transmission_range=50)
        assert hops_to(g, 0, [0]) == 0
        assert hops_to(g, 0, [3]) == 3
        g2 = APGraph(line_of_aps([0, 40, 200]), transmission_range=50)
        assert hops_to(g2, 0, [2]) is None

    def test_shortest_path(self):
        g = APGraph(line_of_aps([0, 40, 80, 120]), transmission_range=50)
        assert g.shortest_path(0, 3) == [0, 1, 2, 3]
        assert g.shortest_path(2, 2) == [2]
        g2 = APGraph(line_of_aps([0, 200]), transmission_range=50)
        assert g2.shortest_path(0, 1) is None

    def test_min_hops_to_building(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 1),
            AccessPoint(2, Point(80, 0), 2),
        ]
        g = APGraph(aps, transmission_range=50)
        assert g.min_hops_to_building(0, 2) == 2
        assert g.min_hops_to_building(2, 2) == 0
        assert g.min_hops_to_building(0, 99) is None

    def test_components(self):
        g = APGraph(line_of_aps([0, 40, 200, 240, 280]), transmission_range=50)
        comps = find_islands(g)
        assert [c.size for c in comps] == [3, 2]

    def test_buildings_reachable(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 2),
            AccessPoint(2, Point(500, 0), 3),
        ]
        g = APGraph(aps, transmission_range=50)
        assert g.buildings_reachable(1, 2)
        assert not g.buildings_reachable(1, 3)
        assert not g.buildings_reachable(1, 99)

    def test_aps_within(self):
        g = APGraph(line_of_aps([0, 100]), transmission_range=50)
        assert g.aps_within(Point(10, 0), 20) == [0]

    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                    min_size=2, max_size=30, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_adjacency_symmetric(self, xs):
        g = APGraph(line_of_aps(sorted(xs)), transmission_range=60)
        for ap in g.aps:
            for n in g.neighbors(ap.id):
                assert ap.id in g.neighbors(n)


class TestIslands:
    def test_find_islands_ordering(self):
        g = APGraph(line_of_aps([0, 40, 80, 500, 540]), transmission_range=50)
        islands = find_islands(g)
        assert [i.size for i in islands] == [3, 2]

    def test_min_size_filter(self):
        g = APGraph(line_of_aps([0, 40, 80, 500]), transmission_range=50)
        islands = find_islands(g, min_size=2)
        assert len(islands) == 1

    def test_island_building_ids(self):
        aps = [AccessPoint(0, Point(0, 0), 7), AccessPoint(1, Point(40, 0), 8)]
        g = APGraph(aps, transmission_range=50)
        assert find_islands(g)[0].building_ids == frozenset({7, 8})

    def test_alive_subset_none_matches_full(self):
        g = APGraph(line_of_aps([0, 40, 80, 500, 540]), transmission_range=50)
        full = find_islands(g)
        explicit = find_islands(g, alive=range(len(g.aps)))
        assert {i.ap_ids for i in full} == {i.ap_ids for i in explicit}

    def test_alive_subset_splits_island(self):
        """Killing the middle AP of a chain splits its island in two,
        with ids reported in the original graph's id space."""
        g = APGraph(line_of_aps([0, 40, 80, 120, 160]), transmission_range=50)
        assert len(find_islands(g)) == 1
        islands = find_islands(g, alive={0, 1, 3, 4})
        assert {i.ap_ids for i in islands} == {frozenset({0, 1}), frozenset({3, 4})}

    def test_alive_subset_min_size(self):
        g = APGraph(line_of_aps([0, 40, 80, 120]), transmission_range=50)
        islands = find_islands(g, min_size=2, alive={0, 1, 3})
        assert [i.ap_ids for i in islands] == [frozenset({0, 1})]

    def test_alive_subset_empty(self):
        g = APGraph(line_of_aps([0, 40]), transmission_range=50)
        assert find_islands(g, alive=set()) == []

    def test_alive_subset_unknown_id_raises(self):
        g = APGraph(line_of_aps([0, 40]), transmission_range=50)
        with pytest.raises(IndexError):
            find_islands(g, alive={0, 99})

    def test_alive_subset_matches_full_rebuild(self):
        """The incremental path must agree with rebuilding the surviving
        mesh from scratch (modulo the rebuild's id re-indexing)."""
        from repro.mesh import PowerProfile, PowerSource, surviving_mesh

        city = river_city(seed=3, bridges=0, blocks_x=4, blocks_y=4)
        g = APGraph(place_aps(city, rng=random.Random(3)))
        rng = random.Random(7)
        profiles = {
            ap.id: (
                PowerProfile(PowerSource.GENERATOR)
                if rng.random() < 0.6
                else PowerProfile(PowerSource.NONE)
            )
            for ap in g.aps
        }
        alive = {ap.id for ap in g.aps if profiles[ap.id].alive_at(4.0)}

        incremental = find_islands(g, alive=alive)
        assert all(i.ap_ids <= alive for i in incremental)

        rebuilt_graph = surviving_mesh(g, profiles, 4.0)
        rebuilt = find_islands(rebuilt_graph)
        # Compare islands by the positions of their member APs: the
        # rebuild re-indexes ids, positions are the stable identity.
        def position_sets(graph, islands):
            return {
                frozenset(graph.position(a) for a in i.ap_ids) for i in islands
            }

        assert position_sets(g, incremental) == position_sets(
            rebuilt_graph, rebuilt
        )
        assert {i.building_ids for i in incremental} == {
            i.building_ids for i in rebuilt
        }

    def test_closest_gap(self):
        g = APGraph(line_of_aps([0, 40, 300, 340]), transmission_range=50)
        islands = find_islands(g)
        a, b, d = closest_gap(g, islands[0], islands[1])
        assert {a, b} == {1, 2}
        assert d == pytest.approx(260)

    def test_plan_bridge_chain_spacing(self):
        g = APGraph(line_of_aps([0, 40, 300, 340]), transmission_range=50)
        islands = find_islands(g)
        plan = plan_bridge(g, islands[0], islands[1])
        assert plan.ap_count >= 5
        # Consecutive chain positions must be within range.
        pts = [g.position(plan.from_ap), *plan.new_positions, g.position(plan.to_ap)]
        for p, q in zip(pts, pts[1:]):
            assert p.distance_to(q) <= 50 + 1e-9

    def test_plan_bridge_already_connected_gap(self):
        g = APGraph(line_of_aps([0, 40, 95, 135]), transmission_range=50)
        islands = find_islands(g)
        # Gap of 55 m: one AP graph break but no new APs needed? 55 > 50,
        # so exactly one intermediate AP should appear.
        plan = plan_bridge(g, islands[0], islands[1])
        assert plan.ap_count == 1

    def test_plan_bridge_spacing_validation(self):
        g = APGraph(line_of_aps([0, 200]), transmission_range=50)
        islands = find_islands(g)
        with pytest.raises(ValueError):
            plan_bridge(g, islands[0], islands[1], spacing_factor=0)

    def test_bridge_all_islands_end_to_end(self):
        """Bridging a river city reconnects the two banks."""
        city = river_city(seed=2, bridges=0, blocks_x=5, blocks_y=5)
        aps = place_aps(city, rng=random.Random(2))
        g = APGraph(aps)
        before = find_islands(g)
        assert len(before) >= 2
        plans, new_aps = bridge_all_islands(g, min_island_size=5)
        assert plans and new_aps
        bridged = apply_bridges(g, new_aps)
        comps_after = find_islands(bridged, min_size=5)
        assert len(comps_after) == 1

    def test_bridge_all_islands_noop_when_connected(self):
        g = APGraph(line_of_aps([0, 40, 80]), transmission_range=50)
        plans, new_aps = bridge_all_islands(g)
        assert plans == [] and new_aps == []


class TestWithAddedAps:
    """APGraph.with_added_aps must reproduce a fresh build byte-exactly.

    The columnar broadcast kernel aligns RNG draws with adjacency-list
    order, so these tests require *exact list equality* (including
    neighbour order), not just the same edge set.
    """

    @staticmethod
    def _world(preset="gridport", seed=0):
        city = make_city(preset, seed=seed)
        aps = place_aps(city, rng=random.Random(seed))
        return city, APGraph(aps)

    @staticmethod
    def _assert_identical(extended, fresh):
        assert len(extended) == len(fresh)
        assert extended.adjacency_lists() == fresh.adjacency_lists()
        for b in {ap.building_id for ap in fresh.aps}:
            assert extended.aps_in_building(b) == fresh.aps_in_building(b)

    def test_extension_matches_fresh_build(self):
        city, base = self._world()
        plans, new_aps = bridge_all_islands(base, min_island_size=2)
        if not new_aps:  # connected world: manufacture a deploy anyway
            n0 = len(base.aps)
            new_aps = [
                AccessPoint(n0 + i, Point(30.0 * i, -40.0), 1)
                for i in range(4)
            ]
        extended = base.with_added_aps(new_aps)
        fresh = APGraph(list(base.aps) + list(new_aps))
        self._assert_identical(extended, fresh)
        assert extended.version == base.version + 1
        assert fresh.version == 0
        # The base graph is untouched (immutability contract).
        assert len(base) == len(fresh) - len(new_aps)
        assert all(w < len(base) for lst in base.adjacency_lists() for w in lst)

    def test_chained_extensions_bump_version(self):
        _, base = self._world()
        n0 = len(base.aps)
        batch1 = [AccessPoint(n0, Point(5.0, -30.0), 1)]
        batch2 = [
            AccessPoint(n0 + 1, Point(25.0, -30.0), 1),
            AccessPoint(n0 + 2, Point(45.0, -30.0), 1),
        ]
        g1 = base.with_added_aps(batch1)
        g2 = g1.with_added_aps(batch2)
        assert (base.version, g1.version, g2.version) == (0, 1, 2)
        fresh = APGraph(list(base.aps) + batch1 + batch2)
        self._assert_identical(g2, fresh)

    def test_override_range_within_cell_is_incremental(self):
        _, base = self._world()
        n0 = len(base.aps)
        new_aps = [AccessPoint(n0, Point(10.0, -20.0), 1, range_m=45.0)]
        extended = base.with_added_aps(new_aps)
        assert extended.version == base.version + 1
        self._assert_identical(extended, APGraph(list(base.aps) + new_aps))

    def test_oversized_range_falls_back_to_full_rebuild(self):
        _, base = self._world()
        n0 = len(base.aps)
        new_aps = [AccessPoint(n0, Point(10.0, -20.0), 1, range_m=500.0)]
        extended = base.with_added_aps(new_aps)
        assert extended.version == 0  # fresh build, not an extension
        self._assert_identical(extended, APGraph(list(base.aps) + new_aps))

    def test_noncontiguous_ids_rejected(self):
        _, base = self._world()
        with pytest.raises(ValueError):
            base.with_added_aps(
                [AccessPoint(len(base.aps) + 5, Point(0.0, -20.0), 1)]
            )

    def test_empty_batch_returns_self(self):
        _, base = self._world()
        assert base.with_added_aps([]) is base


@st.composite
def unit_disk_cases(draw):
    """A default range, up to 60 APs and a split point for a batch.

    Coordinates are either snapped to a step that divides the range (so
    pairs sit exactly ``range`` apart, points repeat and sit on cell
    borders) or free floats, negative ones included; override ranges
    mix sub-metre values (cell size 1 m) with values above the
    default (cell size grows, and a batch AP can exceed the base's).
    """
    transmission_range = draw(st.sampled_from([50.0, 7.5, 1.0, 0.6]))
    step = transmission_range / draw(st.sampled_from([1, 2, 5]))
    coord = st.one_of(
        st.integers(-6, 6).map(lambda k: k * step),
        st.floats(-4 * transmission_range, 4 * transmission_range, allow_nan=False),
    )
    range_m = st.one_of(
        st.none(),
        st.sampled_from([0.4, 0.9, transmission_range, 1.5 * transmission_range, 3.0 * transmission_range]),
    )
    specs = draw(st.lists(st.tuples(coord, coord, range_m), max_size=60))
    aps = [AccessPoint(i, Point(x, y), i % 3, range_m=r) for i, (x, y, r) in enumerate(specs)]
    return transmission_range, aps, draw(st.integers(0, len(aps)))


class TestUnitDiskOracle:
    """The grid join against one radius query per AP: same lists, same order."""

    @given(unit_disk_cases())
    @settings(max_examples=300, deadline=None)
    def test_fresh_build_matches_radius_queries(self, case):
        transmission_range, aps, _ = case
        graph = APGraph(aps, transmission_range=transmission_range)
        assert graph.adjacency_lists() == reference_unit_disk(aps, transmission_range)

    @given(unit_disk_cases())
    @settings(max_examples=300, deadline=None)
    def test_added_batch_matches_radius_queries(self, case):
        transmission_range, aps, split = case
        base = APGraph(aps[:split], transmission_range=transmission_range)
        extended = base.with_added_aps(aps[split:])
        assert extended.adjacency_lists() == reference_unit_disk(aps, transmission_range)
        assert base.adjacency_lists() == reference_unit_disk(aps[:split], transmission_range)
