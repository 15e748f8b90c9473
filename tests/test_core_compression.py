"""Tests for the Figure-4 route-compression algorithm."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressedRoute, compress_route, conduits_for_waypoints
from repro.geometry import ConduitRect, Point, covers_all


def straight_route(n, spacing=30.0):
    return [Point(i * spacing, 0) for i in range(n)]


class TestCompressRoute:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compress_route([])

    def test_bad_width_raises(self):
        with pytest.raises(ValueError):
            compress_route([Point(0, 0)], width=0)

    def test_single_building(self):
        c = compress_route([Point(0, 0)])
        assert c.waypoints == (0,)

    def test_two_buildings(self):
        c = compress_route([Point(0, 0), Point(100, 0)])
        assert c.waypoints == (0, 1)

    def test_straight_route_compresses_to_endpoints(self):
        """A perfectly straight route needs only source and destination."""
        route = straight_route(20)
        c = compress_route(route, width=50)
        assert c.waypoints == (0, 19)

    def test_first_and_last_always_waypoints(self):
        rng = random.Random(0)
        route = [Point(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(15)]
        c = compress_route(route, width=50)
        assert c.waypoints[0] == 0
        assert c.waypoints[-1] == 14

    def test_right_angle_needs_intermediate_waypoint(self):
        # L-shaped route: straight conduit from start to end misses the
        # corner buildings by far more than W/2.
        leg1 = [Point(i * 30, 0) for i in range(10)]
        leg2 = [Point(270, (i + 1) * 30) for i in range(10)]
        route = leg1 + leg2
        c = compress_route(route, width=50)
        assert len(c.waypoints) >= 3
        # All skipped buildings must be covered by the conduits.
        self._assert_covered(route, c)

    def test_zigzag_coverage(self):
        rng = random.Random(4)
        route = [Point(i * 40, rng.uniform(-60, 60)) for i in range(25)]
        c = compress_route(route, width=50)
        self._assert_covered(route, c)

    @staticmethod
    def _assert_covered(route, compressed: CompressedRoute):
        """Every skipped building lies in the conduit that skipped it."""
        wps = compressed.waypoints
        for a, b in zip(wps, wps[1:]):
            rect = ConduitRect(route[a], route[b], compressed.width)
            for k in range(a + 1, b):
                assert rect.contains(route[k]), (a, k, b)

    def test_wider_conduit_never_more_waypoints(self):
        rng = random.Random(9)
        route = [Point(i * 35, rng.uniform(-80, 80)) for i in range(30)]
        narrow = compress_route(route, width=30)
        wide = compress_route(route, width=120)
        assert wide.waypoint_count <= narrow.waypoint_count

    def test_waypoints_strictly_increasing(self):
        rng = random.Random(2)
        route = [Point(rng.uniform(0, 400), rng.uniform(0, 400)) for _ in range(20)]
        c = compress_route(route, width=50)
        assert all(a < b for a, b in zip(c.waypoints, c.waypoints[1:]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=2000, allow_nan=False),
                st.floats(min_value=0, max_value=2000, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        ),
        st.floats(min_value=5, max_value=200, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_for_random_routes(self, coords, width):
        route = [Point(x, y) for x, y in coords]
        c = compress_route(route, width=width)
        assert c.waypoints[0] == 0
        assert c.waypoints[-1] == len(route) - 1
        assert all(a < b for a, b in zip(c.waypoints, c.waypoints[1:]))
        self._assert_covered(route, c)


def naive_compress(route, width):
    """Figure 4 as stated: from each waypoint, the latest building whose
    conduit covers every building it skips."""
    waypoints = [0]
    while waypoints[-1] < len(route) - 1:
        cur = waypoints[-1]
        waypoints.append(
            max(
                j
                for j in range(cur + 1, len(route))
                if covers_all(route[cur], route[j], width, route[cur + 1 : j])
            )
        )
    return tuple(waypoints)


_coord = st.floats(min_value=-500, max_value=500, allow_nan=False)
_step = st.tuples(
    st.floats(min_value=-60, max_value=60), st.floats(min_value=-60, max_value=60)
)
_width = st.floats(min_value=5, max_value=200)


@st.composite
def _routes(draw):
    """Random walks that may stall on a centroid or retrace themselves."""
    x, y = draw(_coord), draw(_coord)
    route = [Point(x, y)]
    for dx, dy in draw(st.lists(_step, min_size=0, max_size=25)):
        move = draw(st.sampled_from(["step", "step", "stay", "revisit"]))
        if move == "step":
            x, y = x + dx, y + dy
            route.append(Point(x, y))
        elif move == "stay":
            route.append(route[-1])
        else:
            route.append(draw(st.sampled_from(route)))
            x, y = route[-1].x, route[-1].y
    if draw(st.booleans()):
        route += route[-2::-1]  # walk all the way back over itself
    return route


class TestMatchesNaiveOracle:
    @given(route=_routes(), width=_width)
    @settings(max_examples=200, deadline=None)
    def test_random_walks(self, route, width):
        assert compress_route(route, width).waypoints == naive_compress(route, width)

    @pytest.mark.parametrize("width", [5.0, 50.0, 200.0])
    def test_repeated_centroids_take_the_disc_branch(self, width):
        a, b = Point(0, 0), Point(width / 2.0, 0)  # b sits on a's disc rim
        route = [a, a, b, a, Point(3 * width, 0), a, a]
        assert compress_route(route, width).waypoints == naive_compress(route, width)

    def test_metro_shaped_route(self):
        """A 240-building staircase over a jittered 45 m lattice, the
        shape a far pair on the metro preset produces."""
        rng = random.Random(12)
        col = row = 0
        route = []
        while len(route) < 240:
            route.append(
                Point(col * 45 + rng.uniform(-6, 6), row * 45 + rng.uniform(-6, 6))
            )
            if rng.random() < 0.65:
                col += 1
            else:
                row += 1
        compressed = compress_route(route, 50.0)
        assert compressed.waypoints == naive_compress(route, 50.0)
        assert 2 < compressed.waypoint_count < len(route) // 2


class TestConduitsForWaypoints:
    def test_reconstruction_contains_route(self):
        route = straight_route(10)
        c = compress_route(route, width=50)
        path = conduits_for_waypoints([route[i] for i in c.waypoints], c.width)
        for p in route:
            assert path.contains(p)

    def test_single_waypoint_region(self):
        path = conduits_for_waypoints([Point(0, 0)], 50)
        assert path.contains(Point(0, 0))
        assert path.contains(Point(20, 0))
