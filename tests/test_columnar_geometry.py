"""The columnar conduit-overlap kernel must agree with the scalar
predicate bit for bit — verdict by verdict — on every polygon."""

import math
import random

import numpy as np
import pytest

from repro.geometry import (
    ConduitPath,
    ConduitRect,
    Point,
    Polygon,
    PolygonColumns,
    path_overlap_mask,
    rect_overlap_mask,
)


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
            mask = rect_overlap_mask(cols, rect)
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
        mask = rect_overlap_mask(cols, rect)
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
        mask = rect_overlap_mask(cols, rect)
        assert mask.tolist() == [rect.intersects_polygon(p) for p in polys]

    def test_vertex_exactly_on_rect_boundary(self):
        rect = ConduitRect(Point(0, 0), Point(100, 0), width=20)
        polys = [
            Polygon((Point(50, 10), Point(70, 30), Point(30, 30))),  # apex on edge
            Polygon((Point(50, 10.0000001), Point(70, 30), Point(30, 30))),
            Polygon((Point(0, 10), Point(20, 30), Point(-20, 30))),  # apex on corner
        ]
        cols = PolygonColumns(polys)
        mask = rect_overlap_mask(cols, rect)
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
            rect_overlap_mask(cols, ConduitRect(Point(5, 5), Point(5, 5), 10))

    def test_empty_columns(self):
        cols = PolygonColumns([])
        rect = ConduitRect(Point(0, 0), Point(10, 0), width=5)
        assert rect_overlap_mask(cols, rect).shape == (0,)


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

    def test_one_rect_path_is_rect_overlap_mask(self, city):
        polys, cols = city
        for rect in self.long_path(5).rects[10:14]:
            single = path_overlap_mask(cols, ConduitPath([rect]))
            assert single.tolist() == rect_overlap_mask(cols, rect).tolist()
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
