"""Unit and property tests for repro.geometry.polygon."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.city import l_shaped_building, rotated_rectangle
from repro.geometry import Point, Polygon, Segment

from .reference import reference_contains

UNIT_SQUARE = Polygon.rectangle(0, 0, 1, 1)


def random_convex_polygon(draw_radius: float, sides: int, cx: float, cy: float) -> Polygon:
    return Polygon.regular(Point(cx, cy), draw_radius, sides)


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_closing_vertex_dropped(self):
        p = Polygon([Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 0)])
        assert len(p.vertices) == 3

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Polygon.rectangle(0, 0, 0, 1)

    def test_regular_validation(self):
        with pytest.raises(ValueError):
            Polygon.regular(Point(0, 0), 1, 2)
        with pytest.raises(ValueError):
            Polygon.regular(Point(0, 0), -1, 4)

    def test_bbox(self):
        p = Polygon([Point(1, 2), Point(5, 2), Point(3, 9)])
        assert p.bbox == (1, 2, 5, 9)


class TestMeasures:
    def test_square_area(self):
        assert UNIT_SQUARE.area() == 1

    def test_triangle_area(self):
        t = Polygon([Point(0, 0), Point(4, 0), Point(0, 3)])
        assert t.area() == 6

    def test_signed_area_ccw_positive(self):
        assert UNIT_SQUARE.signed_area() > 0

    def test_signed_area_cw_negative(self):
        cw = Polygon(list(reversed(UNIT_SQUARE.vertices)))
        assert cw.signed_area() < 0

    def test_perimeter(self):
        assert UNIT_SQUARE.perimeter() == 4

    def test_centroid_square(self):
        c = UNIT_SQUARE.centroid()
        assert c.x == pytest.approx(0.5)
        assert c.y == pytest.approx(0.5)

    def test_centroid_orientation_invariant(self):
        cw = Polygon(list(reversed(UNIT_SQUARE.vertices)))
        assert cw.centroid().distance_to(UNIT_SQUARE.centroid()) < 1e-9

    def test_regular_polygon_area_formula(self):
        hexagon = Polygon.regular(Point(0, 0), 2.0, 6)
        expected = 0.5 * 6 * 2.0**2 * math.sin(2 * math.pi / 6)
        assert hexagon.area() == pytest.approx(expected)


class TestContains:
    def test_inside(self):
        assert UNIT_SQUARE.contains(Point(0.5, 0.5))

    def test_outside(self):
        assert not UNIT_SQUARE.contains(Point(1.5, 0.5))

    def test_outside_bbox_shortcut(self):
        assert not UNIT_SQUARE.contains(Point(100, 100))

    def test_boundary_counts_as_inside(self):
        assert UNIT_SQUARE.contains(Point(0, 0.5))
        assert UNIT_SQUARE.contains(Point(1, 1))

    def test_concave_polygon(self):
        # L-shape: the notch must be outside.
        l_shape = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        assert l_shape.contains(Point(0.5, 1.5))
        assert l_shape.contains(Point(1.5, 0.5))
        assert not l_shape.contains(Point(1.5, 1.5))


coord = st.floats(min_value=-500, max_value=500, allow_nan=False)
size = st.floats(min_value=0.5, max_value=60)


@st.composite
def star_polygons(draw):
    """A random simple polygon: sorted angles, random radii."""
    center = draw(st.builds(Point, coord, coord))
    angles = sorted(set(draw(st.lists(st.floats(0, 2 * math.pi, exclude_max=True), min_size=3, max_size=9))))
    if len(angles) < 3:
        angles = [0.0, 2.0, 4.0]
    radii = draw(st.lists(size, min_size=len(angles), max_size=len(angles)))
    return Polygon(
        [Point(center.x + r * math.cos(a), center.y + r * math.sin(a)) for a, r in zip(angles, radii)]
    )


polygons = st.one_of(
    star_polygons(),
    st.builds(
        lambda x, y, w, h, notch: l_shaped_building(x, y, x + w, y + h, notch),
        coord,
        coord,
        size,
        size,
        st.floats(0.05, 0.95),
    ),
    # Old-town footprints: rectangles at any rotation.
    st.builds(
        lambda c, w, h, angle: rotated_rectangle(c, w, h, angle),
        st.builds(Point, coord, coord),
        size,
        size,
        st.floats(0, math.pi),
    ),
)


def probes(polygon, ts, fractions):
    """Vertices, points ``ts`` along each edge and nudged 1e-9 either
    way in y, points spread over the bbox padded by 10 %, and the bbox
    corners moved one ulp outward."""
    points = list(polygon.vertices)
    for seg in polygon.edges():
        for t in ts:
            p = seg.a.lerp(seg.b, t)
            points += [p, Point(p.x, p.y + 1e-9), Point(p.x, p.y - 1e-9)]
    min_x, min_y, max_x, max_y = polygon.bbox
    w, h = max_x - min_x, max_y - min_y
    points += [Point(min_x - 0.1 * w + u * 1.2 * w, min_y - 0.1 * h + v * 1.2 * h) for u, v in fractions]
    lo_x, lo_y = math.nextafter(min_x, -math.inf), math.nextafter(min_y, -math.inf)
    hi_x, hi_y = math.nextafter(max_x, math.inf), math.nextafter(max_y, math.inf)
    points += [Point(lo_x, min_y), Point(min_x, lo_y), Point(hi_x, max_y), Point(max_x, hi_y)]
    return points


class TestContainsOrder:
    """Ray cast first and boundary pass second decides like boundary first."""

    @given(
        polygons,
        st.lists(st.floats(0, 1), min_size=1, max_size=4),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_boundary_first(self, polygon, ts, fractions):
        points = probes(polygon, ts, fractions)
        assert [polygon.contains(p) for p in points] == [reference_contains(polygon, p) for p in points]


class TestDistances:
    def test_point_inside_distance_zero(self):
        assert UNIT_SQUARE.distance_to_point(Point(0.5, 0.5)) == 0

    def test_point_outside_distance(self):
        assert UNIT_SQUARE.distance_to_point(Point(3, 0.5)) == 2

    def test_polygon_distance_disjoint(self):
        other = Polygon.rectangle(3, 0, 4, 1)
        assert UNIT_SQUARE.distance_to_polygon(other) == 2

    def test_polygon_distance_overlapping_zero(self):
        other = Polygon.rectangle(0.5, 0.5, 2, 2)
        assert UNIT_SQUARE.distance_to_polygon(other) == 0

    def test_polygon_distance_contained_zero(self):
        inner = Polygon.rectangle(0.25, 0.25, 0.75, 0.75)
        assert UNIT_SQUARE.distance_to_polygon(inner) == 0
        assert inner.distance_to_polygon(UNIT_SQUARE) == 0

    def test_polygon_distance_symmetric(self):
        a = Polygon.rectangle(0, 0, 1, 1)
        b = Polygon.regular(Point(5, 5), 1, 6)
        assert a.distance_to_polygon(b) == pytest.approx(b.distance_to_polygon(a))


class TestSegmentIntersection:
    def test_crossing_segment(self):
        seg = Segment(Point(-1, 0.5), Point(2, 0.5))
        assert UNIT_SQUARE.intersects_segment(seg)

    def test_contained_segment(self):
        seg = Segment(Point(0.2, 0.2), Point(0.8, 0.8))
        assert UNIT_SQUARE.intersects_segment(seg)

    def test_disjoint_segment(self):
        seg = Segment(Point(2, 2), Point(3, 3))
        assert not UNIT_SQUARE.intersects_segment(seg)


class TestSamplingAndTransforms:
    def test_random_point_inside(self):
        rng = random.Random(42)
        for _ in range(50):
            p = UNIT_SQUARE.random_point_inside(rng)
            assert UNIT_SQUARE.contains(p)

    def test_translated(self):
        moved = UNIT_SQUARE.translated(10, 20)
        assert moved.centroid().distance_to(Point(10.5, 20.5)) < 1e-9
        assert moved.area() == pytest.approx(1)

    def test_scaled_area(self):
        big = UNIT_SQUARE.scaled(2)
        assert big.area() == pytest.approx(4)
        # Scaling about the centroid keeps the centroid fixed.
        assert big.centroid().distance_to(UNIT_SQUARE.centroid()) < 1e-9


class TestPolygonProperties:
    @given(
        st.integers(min_value=3, max_value=12),
        st.floats(min_value=0.5, max_value=100, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_regular_centroid_is_center(self, sides, radius, cx, cy):
        poly = Polygon.regular(Point(cx, cy), radius, sides)
        assert poly.centroid().distance_to(Point(cx, cy)) < 1e-6 * max(1.0, radius)

    @given(
        st.integers(min_value=3, max_value=10),
        st.floats(min_value=1, max_value=50, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_sampled_points_inside(self, sides, radius):
        poly = Polygon.regular(Point(0, 0), radius, sides)
        rng = random.Random(sides)
        for _ in range(10):
            assert poly.contains(poly.random_point_inside(rng))

    @given(st.floats(min_value=0.1, max_value=10, allow_nan=False))
    @settings(max_examples=30)
    def test_scaling_scales_area_quadratically(self, factor):
        scaled = UNIT_SQUARE.scaled(factor)
        assert scaled.area() == pytest.approx(factor**2, rel=1e-6)
