"""Unit and property tests for repro.geometry.segment."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Segment

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coord, coord)


class TestSegmentBasics:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length() == 5

    def test_direction(self):
        assert Segment(Point(0, 0), Point(0, 2)).direction() == Point(0, 1)

    def test_direction_degenerate_raises(self):
        with pytest.raises(ValueError):
            Segment(Point(1, 1), Point(1, 1)).direction()

    def test_segment_length_helper(self):
        assert Segment(Point(0, 0), Point(6, 8)).length() == 10


class TestProjection:
    def test_param_at_endpoints(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.project_param(Point(0, 5)) == 0
        assert s.project_param(Point(10, 5)) == 1

    def test_param_midpoint(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.project_param(Point(5, 3)) == pytest.approx(0.5)

    def test_param_beyond_ends(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.project_param(Point(-5, 0)) == pytest.approx(-0.5)
        assert s.project_param(Point(15, 0)) == pytest.approx(1.5)

    def test_param_degenerate_is_zero(self):
        s = Segment(Point(1, 1), Point(1, 1))
        assert s.project_param(Point(9, 9)) == 0

    def test_closest_point_clamps(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.closest_point_to(Point(-3, 4)) == Point(0, 0)
        assert s.closest_point_to(Point(12, 4)) == Point(10, 0)
        assert s.closest_point_to(Point(4, 4)) == Point(4, 0)


class TestDistances:
    def test_point_distance_perpendicular(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.distance_to_point(Point(5, 7)) == 7

    def test_point_distance_beyond_end(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.distance_to_point(Point(13, 4)) == 5

    def test_segment_segment_crossing_is_zero(self):
        s1 = Segment(Point(0, 0), Point(10, 10))
        s2 = Segment(Point(0, 10), Point(10, 0))
        assert s1.distance_to_segment(s2) == 0

    def test_segment_segment_parallel(self):
        s1 = Segment(Point(0, 0), Point(10, 0))
        s2 = Segment(Point(0, 3), Point(10, 3))
        assert s1.distance_to_segment(s2) == 3

    def test_segment_segment_endpoint_gap(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(4, 4), Point(8, 8))
        expected = Point(1, 0).distance_to(Point(4, 4))
        assert s1.distance_to_segment(s2) == pytest.approx(expected)


class TestIntersection:
    def test_crossing(self):
        assert Segment(Point(0, 0), Point(2, 2)).intersects(
            Segment(Point(0, 2), Point(2, 0))
        )

    def test_disjoint(self):
        assert not Segment(Point(0, 0), Point(1, 0)).intersects(
            Segment(Point(0, 1), Point(1, 1))
        )

    def test_touching_endpoint(self):
        assert Segment(Point(0, 0), Point(1, 1)).intersects(
            Segment(Point(1, 1), Point(2, 0))
        )

    def test_collinear_overlapping(self):
        assert Segment(Point(0, 0), Point(5, 0)).intersects(
            Segment(Point(3, 0), Point(8, 0))
        )

    def test_collinear_disjoint(self):
        assert not Segment(Point(0, 0), Point(1, 0)).intersects(
            Segment(Point(2, 0), Point(3, 0))
        )


class TestSegmentProperties:
    @given(points, points, points)
    def test_distance_nonnegative(self, a, b, p):
        assert Segment(a, b).distance_to_point(p) >= 0

    @given(points, points, points)
    def test_closest_point_is_best(self, a, b, p):
        """No sampled point along the segment beats closest_point_to."""
        s = Segment(a, b)
        best = s.distance_to_point(p)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert best <= p.distance_to(s.point_at(t)) + 1e-6

    @given(points, points)
    def test_endpoint_distance_zero(self, a, b):
        s = Segment(a, b)
        assert s.distance_to_point(a) == pytest.approx(0, abs=1e-6)
        assert s.distance_to_point(b) == pytest.approx(0, abs=1e-6)

    @given(points, points, points, points)
    def test_segment_distance_symmetric(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert s1.distance_to_segment(s2) == pytest.approx(
            s2.distance_to_segment(s1), abs=1e-6
        )

    @given(points, points, points, points)
    def test_intersection_symmetric(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert s1.intersects(s2) == s2.intersects(s1)
