"""The columnar kernels must agree with the scalar predicates bit for
bit — verdict by verdict — on every polygon and every point."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    ConduitPath,
    ConduitRect,
    Point,
    Polygon,
    PolygonColumns,
    contains_mask,
    path_overlap_mask,
)
from repro.scenario.generate import _disc, _rect


def random_polygon(rng: random.Random) -> Polygon:
    """Random convex-ish footprint: a jittered rectangle or a regular
    polygon, placed anywhere in a 400 m square."""
    cx = rng.uniform(-50, 350)
    cy = rng.uniform(-50, 350)
    if rng.random() < 0.6:
        w = rng.uniform(4, 40)
        h = rng.uniform(4, 40)
        return Polygon.rectangle(cx, cy, cx + w, cy + h)
    return Polygon.regular(
        Point(cx, cy),
        radius=rng.uniform(3, 25),
        sides=rng.randint(3, 8),
        rotation=rng.uniform(0, math.pi),
    )


def random_rect(rng: random.Random) -> ConduitRect:
    a = Point(rng.uniform(0, 300), rng.uniform(0, 300))
    b = Point(rng.uniform(0, 300), rng.uniform(0, 300))
    if a == b:
        b = Point(a.x + 50.0, a.y)
    return ConduitRect(a, b, width=rng.uniform(5, 80))


def rect_mask(cols, rect):
    """The conduit kernel over a one-rectangle path."""
    return path_overlap_mask(cols, ConduitPath([rect]))


def assert_mask_matches(polygons, path):
    cols = PolygonColumns([p for p in polygons])
    mask = path_overlap_mask(cols, path, polygons=polygons)
    expected = [path.intersects_polygon(p) for p in polygons]
    assert mask.tolist() == expected


class TestRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_rects_match_scalar(self, seed):
        rng = random.Random(seed)
        polygons = [random_polygon(rng) for _ in range(120)]
        cols = PolygonColumns(polygons)
        for _ in range(6):
            rect = random_rect(rng)
            mask = rect_mask(cols, rect)
            expected = [rect.intersects_polygon(p) for p in polygons]
            assert mask.tolist() == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_random_paths_match_scalar(self, seed):
        rng = random.Random(100 + seed)
        polygons = [random_polygon(rng) for _ in range(100)]
        waypoints = [
            Point(rng.uniform(0, 300), rng.uniform(0, 300))
            for _ in range(rng.randint(2, 5))
        ]
        path = ConduitPath.from_waypoints(waypoints, width=rng.uniform(10, 60))
        assert_mask_matches(polygons, path)


class TestAdversarial:
    """Touching, collinear, shared-vertex, and containment edge cases —
    exactly where epsilon slop in the scalar clauses lives."""

    def test_polygon_touching_rect_corner(self):
        rect = ConduitRect(Point(0, 0), Point(100, 0), width=20)
        # Rect corners at (0, ±10) and (100, ±10).
        touching = Polygon.rectangle(100, 10, 120, 30)  # shares corner (100,10)
        separate = Polygon.rectangle(100.001, 10.001, 120, 30)
        inside = Polygon.rectangle(40, -5, 60, 5)
        containing = Polygon.rectangle(-50, -50, 150, 50)  # rect fully inside
        polys = [touching, separate, inside, containing]
        cols = PolygonColumns(polys)
        mask = rect_mask(cols, rect)
        assert mask.tolist() == [rect.intersects_polygon(p) for p in polys]
        assert mask.tolist() == [True, False, True, True]

    def test_collinear_edge_overlap(self):
        rect = ConduitRect(Point(0, 0), Point(100, 0), width=20)
        # Polygon edge collinear with the rect's top edge y=10.
        sharing_edge = Polygon.rectangle(20, 10, 60, 40)
        just_above = Polygon.rectangle(20, 10 + 5e-13, 60, 40)  # inside 1e-12 slop
        clearly_above = Polygon.rectangle(20, 10.1, 60, 40)
        polys = [sharing_edge, just_above, clearly_above]
        cols = PolygonColumns(polys)
        mask = rect_mask(cols, rect)
        assert mask.tolist() == [rect.intersects_polygon(p) for p in polys]

    def test_vertex_exactly_on_rect_boundary(self):
        rect = ConduitRect(Point(0, 0), Point(100, 0), width=20)
        polys = [
            Polygon((Point(50, 10), Point(70, 30), Point(30, 30))),  # apex on edge
            Polygon((Point(50, 10.0000001), Point(70, 30), Point(30, 30))),
            Polygon((Point(0, 10), Point(20, 30), Point(-20, 30))),  # apex on corner
        ]
        cols = PolygonColumns(polys)
        mask = rect_mask(cols, rect)
        assert mask.tolist() == [rect.intersects_polygon(p) for p in polys]

    def test_degenerate_disc_conduit(self):
        path = ConduitPath.from_waypoints([Point(50, 50)], width=30)
        polys = [
            Polygon.rectangle(40, 40, 60, 60),  # around the disc centre
            Polygon.rectangle(63, 50, 80, 60),  # near the rim
            Polygon.rectangle(80, 80, 90, 90),  # far away
            Polygon.rectangle(64.9, 49, 80, 51),  # just inside r=15 laterally
        ]
        cols = PolygonColumns(polys)
        mask = path_overlap_mask(cols, path, polygons=polys)
        assert mask.tolist() == [path.intersects_polygon(p) for p in polys]

    def test_degenerate_rect_direct_call_raises(self):
        cols = PolygonColumns([Polygon.rectangle(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            rect_mask(cols, ConduitRect(Point(5, 5), Point(5, 5), 10))

    def test_empty_columns(self):
        cols = PolygonColumns([])
        rect = ConduitRect(Point(0, 0), Point(10, 0), width=5)
        assert rect_mask(cols, rect).shape == (0,)


class TestWholePathBatch:
    """One kernel pass over a long path and a city-sized column set."""

    PITCH = 45.0
    LOTS = 72  # 72 x 72 = 5 184 footprints

    @pytest.fixture(scope="class")
    def city(self):
        rng = random.Random(3)
        polys = []
        for row in range(self.LOTS):
            for col in range(self.LOTS):
                x = col * self.PITCH + rng.uniform(0, 8)
                y = row * self.PITCH + rng.uniform(0, 8)
                if rng.random() < 0.8:
                    polys.append(
                        Polygon.rectangle(
                            x, y, x + rng.uniform(15, 34), y + rng.uniform(15, 34)
                        )
                    )
                else:
                    polys.append(
                        Polygon.regular(
                            Point(x + 15, y + 15),
                            radius=rng.uniform(8, 17),
                            sides=rng.randint(3, 7),
                            rotation=rng.uniform(0, math.pi),
                        )
                    )
        # Malls several grid cells wide (the cell is about twice the
        # mean footprint side): a conduit clipping one end only finds
        # them if they were filed under every cell they straddle.
        for _ in range(12):
            x = rng.uniform(0, 2800)
            y = rng.uniform(0, 2800)
            polys.append(
                Polygon.rectangle(x, y, x + rng.uniform(150, 320), y + rng.uniform(150, 320))
            )
        return polys, PolygonColumns(polys)

    def long_path(self, seed: int) -> ConduitPath:
        """Enters from outside the city, wanders across it with one
        repeated waypoint (a disc leg) half-way, and leaves again."""
        rng = random.Random(seed)
        span = self.LOTS * self.PITCH
        waypoints = [Point(-600, -500), Point(-350, -420), Point(-200, -60)]
        x, y = 100.0, 80.0
        for i in range(52):
            waypoints.append(Point(x, y))
            if i == 25:
                waypoints.append(Point(x, y))
            heading = rng.uniform(-0.9, 0.9) + (0.0 if (i // 13) % 2 == 0 else math.pi)
            step = rng.uniform(60, 220)
            x = min(max(x + step * math.cos(heading), 0.0), span)
            y = min(max(y + abs(step * math.sin(heading)) + 20, 0.0), span)
        waypoints += [Point(span + 300, span + 100), Point(span + 700, span + 150)]
        return ConduitPath.from_waypoints(waypoints, width=50.0)

    @staticmethod
    def scalar_mask(path, polys):
        """The scalar verdict per polygon.  ``intersects_polygon`` costs
        ~50 us a call, so it runs only on (rect, polygon) pairs whose
        boxes come within a metre — shapes whose boxes are a metre apart
        share no point — and on every 40th polygon against the whole
        path regardless, which keeps that shortcut honest."""
        boxes = []
        for rect in path.rects:
            xs = [c.x for c in rect.corners()]
            ys = [c.y for c in rect.corners()]
            boxes.append((min(xs) - 1, min(ys) - 1, max(xs) + 1, max(ys) + 1))
        expected = []
        for i, poly in enumerate(polys):
            x0, y0, x1, y1 = poly.bbox
            verdict = any(
                rect.intersects_polygon(poly)
                for rect, (bx0, by0, bx1, by1) in zip(path.rects, boxes)
                if x1 >= bx0 and x0 <= bx1 and y1 >= by0 and y0 <= by1
            )
            if i % 40 == 0:
                assert verdict == path.intersects_polygon(poly)
            expected.append(verdict)
        return expected

    @pytest.mark.parametrize("seed", [3, 4])
    def test_long_path_matches_scalar(self, city, seed):
        polys, cols = city
        path = self.long_path(seed)
        assert len(path.rects) >= 50 and len(polys) >= 5000
        assert any(r.start == r.end for r in path.rects[20:35])
        mask = path_overlap_mask(cols, path, polygons=polys)
        expected = self.scalar_mask(path, polys)
        assert mask.tolist() == expected
        assert 100 < sum(expected) < len(polys) // 2
        assert any(expected[-12:])  # a mall was reached
        # The legs outside the city bbox claim nothing.
        outside = ConduitPath(path.rects[:2] + path.rects[-1:])
        assert not path_overlap_mask(cols, outside).any()

    def test_one_rect_path_matches_scalar(self, city):
        polys, cols = city
        for rect in self.long_path(5).rects[10:14]:
            single = path_overlap_mask(cols, ConduitPath([rect]))
            assert single.tolist() == self.scalar_mask(ConduitPath([rect]), polys)
            assert single.any()

    def test_bbox_candidates_match_brute_force(self, city):
        polys, cols = city
        rng = random.Random(11)
        x0 = np.array([rng.uniform(-400, 3400) for _ in range(40)])
        y0 = np.array([rng.uniform(-400, 3400) for _ in range(40)])
        x1 = x0 + np.array([rng.uniform(0, 500) for _ in range(40)])
        y1 = y0 + np.array([rng.uniform(0, 500) for _ in range(40)])
        box, row = cols.bbox_candidates(x0, y0, x1, y1)
        got = sorted(zip(box.tolist(), row.tolist()))
        assert len(got) == len(set(got))  # each pair once
        want = [
            (b, r)
            for b in range(40)
            for r in np.nonzero(
                (cols.max_x >= x0[b])
                & (cols.min_x <= x1[b])
                & (cols.max_y >= y0[b])
                & (cols.min_y <= y1[b])
            )[0].tolist()
        ]
        assert got == want


class TestAgainstRealCity:
    def test_gridport_conduits_match(self):
        from repro.city import make_city
        from repro.core import BuildingRouter

        city = make_city("gridport", seed=0)
        router = BuildingRouter(city)
        polys = [b.polygon for b in city.buildings]
        cols = PolygonColumns(polys)
        pairs = [
            (city.buildings[0].id, city.buildings[-1].id),
            (city.buildings[3].id, city.buildings[len(city.buildings) // 2].id),
        ]
        for src, dst in pairs:
            plan = router.plan(src, dst)
            mask = path_overlap_mask(cols, plan.conduits, polygons=polys)
            expected = [
                plan.conduits.intersects_polygon(p) for p in polys
            ]
            assert mask.tolist() == expected
            assert mask.any()  # the route region is non-trivial


# ----------------------------------------------------------------------
# contains_mask: one polygon over point columns
# ----------------------------------------------------------------------
coord = st.floats(min_value=-500, max_value=500, allow_nan=False)
shapes = st.one_of(
    st.builds(
        _disc,
        st.builds(Point, coord, coord),
        st.floats(min_value=0.5, max_value=300),
        st.sampled_from([3, 5, 16]),
    ),
    st.builds(
        lambda x, y, w, h: _rect(x, y, x + w, y + h),
        coord,
        coord,
        st.floats(min_value=0.5, max_value=300),
        st.floats(min_value=0.5, max_value=300),
    ),
)
#: Offsets off an edge, along its normal: inside and outside the
#: scalar test's 1e-9 boundary slop, and right at it.
EDGE_OFFSETS = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9)


def probe_points(polygon, ts, randoms):
    """Every vertex; per edge, a point at each ``ts`` fraction along it
    and that point moved ``EDGE_OFFSETS`` along the edge normal; and
    ``randoms`` (unit-square fractions) spread over the padded bbox."""
    points = list(polygon.vertices)
    verts = polygon.vertices
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        length = a.distance_to(b)
        nx, ny = -(b.y - a.y) / length, (b.x - a.x) / length
        for t in ts:
            on_edge = a.lerp(b, t)
            points += [Point(on_edge.x + nx * d, on_edge.y + ny * d) for d in EDGE_OFFSETS]
    min_x, min_y, max_x, max_y = polygon.bbox
    pad_x, pad_y = 0.1 * (max_x - min_x), 0.1 * (max_y - min_y)
    points += [
        Point(min_x - pad_x + u * (max_x - min_x + 2 * pad_x),
              min_y - pad_y + v * (max_y - min_y + 2 * pad_y))
        for u, v in randoms
    ]
    return points


def assert_contains_matches(polygon, points):
    px = np.array([p.x for p in points], dtype=np.float64)
    py = np.array([p.y for p in points], dtype=np.float64)
    assert contains_mask(polygon, px, py).tolist() == [polygon.contains(p) for p in points]


class TestContainsMask:
    @given(
        shapes,
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=4),
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1)),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_contains(self, polygon, ts, randoms):
        assert_contains_matches(polygon, probe_points(polygon, ts, randoms))

    def test_blocks_cover_a_city_of_points(self):
        """More lanes than one block: the blocked loop stitches verdicts
        back in point order."""
        polygon = _disc(Point(0.0, 0.0), 400.0, 16)
        rng = random.Random(5)
        points = [Point(rng.uniform(-450, 450), rng.uniform(-450, 450)) for _ in range(12_000)]
        assert_contains_matches(polygon, points)

    def test_no_points_and_no_candidates(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        assert contains_mask(square, np.empty(0), np.empty(0)).shape == (0,)
        assert not contains_mask(square, np.array([20.0, -1.0]), np.array([5.0, 5.0])).any()

    # A convex vertex at the origin whose outward cone reaches into the
    # bounding box: a point there is outside the polygon, its nearest
    # boundary point is the vertex itself, so its one deciding number is
    # hypot(dx, dy) against the 1e-9 boundary slop.
    NOTCHED = Polygon(
        (Point(0, 0), Point(20, -5), Point(20, 25), Point(-5, 25), Point(-5, 20), Point(1, 10))
    )

    @pytest.mark.parametrize(
        "dx, dy",
        [
            # np.hypot rounds these to the other side of 1e-9 from
            # math.hypot (glibc): only the scalar re-check gets them right.
            (9.885448610367108e-10, 1.5092732594831906e-10),
            (3.6056882425599836e-10, 9.3273261065251e-10),
        ],
    )
    def test_hypot_rounding_at_the_boundary_slop(self, dx, dy):
        assert_contains_matches(self.NOTCHED, [Point(-dx, -dy)])

    def test_boundary_band_is_decided_by_the_scalar_test(self, monkeypatch):
        """Points a nanometre off an edge take the scalar re-check, and
        only they do."""
        calls = []
        scalar = Polygon.contains

        def spy(polygon, p):
            calls.append(p)
            return scalar(polygon, p)

        monkeypatch.setattr(Polygon, "contains", spy)
        square = Polygon.rectangle(0, 0, 10, 10)
        px = np.array([5.0, 5.0, 5.0, 5.0])
        py = np.array([10 - 1e-9, 5.0, 10 - 3e-9, 10.0])
        assert contains_mask(square, px, py).tolist() == [True] * 4
        assert calls == [Point(5.0, 10 - 1e-9)]
