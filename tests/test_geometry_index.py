"""Unit and property tests for the GridIndex spatial hash."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GridIndex, Point

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def brute_force_radius(items, center, radius):
    return sorted(k for k, p in items if p.distance_to(center) <= radius)


class TestGridIndexBasics:
    def test_cell_size_validation(self):
        with pytest.raises(ValueError):
            GridIndex(0)
        with pytest.raises(ValueError):
            GridIndex(-1)

    def test_insert_and_len(self):
        idx = GridIndex(10)
        idx.insert("a", Point(0, 0))
        idx.insert("b", Point(5, 5))
        assert len(idx) == 2
        assert "a" in idx
        assert "c" not in idx

    def test_position_of(self):
        idx = GridIndex(10)
        idx.insert("a", Point(3, 4))
        assert idx.position_of("a") == Point(3, 4)

    def test_reinsert_moves(self):
        idx = GridIndex(10)
        idx.insert("a", Point(0, 0))
        idx.insert("a", Point(100, 100))
        assert len(idx) == 1
        assert idx.position_of("a") == Point(100, 100)
        assert idx.query_radius(Point(0, 0), 1) == []

    def test_remove(self):
        idx = GridIndex(10)
        idx.insert("a", Point(0, 0))
        idx.remove("a")
        assert len(idx) == 0
        assert idx.query_radius(Point(0, 0), 10) == []

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            GridIndex(10).remove("ghost")

    def test_extend(self):
        idx = GridIndex(10)
        idx.extend([("a", Point(0, 0)), ("b", Point(1, 1))])
        assert len(idx) == 2

    def test_items(self):
        idx = GridIndex(10)
        idx.insert("a", Point(0, 0))
        assert list(idx.items()) == [("a", Point(0, 0))]


class TestRadiusQuery:
    def test_inclusive_boundary(self):
        idx = GridIndex(10)
        idx.insert("edge", Point(10, 0))
        assert idx.query_radius(Point(0, 0), 10) == ["edge"]

    def test_boundary_point_one_cell_below_the_range(self):
        """The point rounds to exactly ``radius`` away but sits in cell
        ``y = -1``, while ``(5 - 5) / 10`` floors to cell 0."""
        idx = GridIndex(10.0)
        p = Point(0.0, -2.4e-231)
        idx.insert("below", p)
        center = Point(0.0, 5.0)
        assert p.distance_to(center) == 5.0
        assert idx.query_radius(center, 5.0) == ["below"]

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            GridIndex(10).query_radius(Point(0, 0), -1)

    def test_query_crosses_cells(self):
        idx = GridIndex(10)
        idx.insert("a", Point(9, 9))
        idx.insert("b", Point(11, 11))
        found = set(idx.query_radius(Point(10, 10), 3))
        assert found == {"a", "b"}

    def test_negative_coordinates(self):
        idx = GridIndex(10)
        idx.insert("neg", Point(-25, -25))
        assert idx.query_radius(Point(-24, -24), 5) == ["neg"]

    def test_matches_brute_force_random(self):
        rng = random.Random(7)
        idx = GridIndex(25)
        items = []
        for i in range(300):
            p = Point(rng.uniform(-500, 500), rng.uniform(-500, 500))
            idx.insert(i, p)
            items.append((i, p))
        for _ in range(20):
            center = Point(rng.uniform(-500, 500), rng.uniform(-500, 500))
            radius = rng.uniform(0, 200)
            assert sorted(idx.query_radius(center, radius)) == brute_force_radius(
                items, center, radius
            )


class TestRectQuery:
    def test_basic(self):
        idx = GridIndex(10)
        idx.insert("in", Point(5, 5))
        idx.insert("out", Point(50, 50))
        assert idx.query_rect(0, 0, 10, 10) == ["in"]

    def test_inclusive_edges(self):
        idx = GridIndex(10)
        idx.insert("corner", Point(10, 10))
        assert idx.query_rect(0, 0, 10, 10) == ["corner"]


class TestNearest:
    def test_empty_returns_none(self):
        assert GridIndex(10).nearest(Point(0, 0)) is None

    def test_single(self):
        idx = GridIndex(10)
        idx.insert("a", Point(100, 100))
        assert idx.nearest(Point(0, 0)) == "a"

    def test_respects_max_radius(self):
        idx = GridIndex(10)
        idx.insert("far", Point(100, 0))
        assert idx.nearest(Point(0, 0), max_radius=50) is None
        assert idx.nearest(Point(0, 0), max_radius=150) == "far"

    def test_matches_brute_force(self):
        rng = random.Random(13)
        idx = GridIndex(20)
        items = []
        for i in range(200):
            p = Point(rng.uniform(-300, 300), rng.uniform(-300, 300))
            idx.insert(i, p)
            items.append((i, p))
        for _ in range(25):
            center = Point(rng.uniform(-300, 300), rng.uniform(-300, 300))
            expect_key = min(items, key=lambda kp: kp[1].distance_to(center))[0]
            got = idx.nearest(center)
            got_d = idx.position_of(got).distance_to(center)
            best_d = min(p.distance_to(center) for _, p in items)
            assert got_d == pytest.approx(best_d)


class TestGridIndexProperties:
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=50),
        st.tuples(coord, coord),
        st.floats(min_value=0, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.5, max_value=200, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_radius_query_matches_brute_force(self, pts, center_xy, radius, cell):
        idx = GridIndex(cell)
        items = []
        for i, (x, y) in enumerate(pts):
            p = Point(x, y)
            idx.insert(i, p)
            items.append((i, p))
        center = Point(*center_xy)
        assert sorted(idx.query_radius(center, radius)) == brute_force_radius(
            items, center, radius
        )
