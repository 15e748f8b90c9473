"""Tests for trajectories, scanning, and the §2 analysis pipeline."""

import random

import pytest

from repro.city import make_city
from repro.geometry import Point
from repro.measurement import (
    Scan,
    ScanDataset,
    Trajectory,
    ap_sighting_locations,
    buildings_along,
    common_ap_bins,
    common_ap_pairs,
    grid_walk,
    line_walk,
    location_spread,
    macs_per_scan_cdf,
    random_walk,
    run_survey,
    spread_cdf,
    table1_row,
)
from repro.mesh import AccessPoint
from repro.sim import FadingDetection


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory((Point(0, 0),), 1.0)
        with pytest.raises(ValueError):
            Trajectory((Point(0, 0), Point(1, 0)), 0)

    def test_length_and_duration(self):
        t = Trajectory((Point(0, 0), Point(100, 0), Point(100, 50)), 2.0)
        assert t.length_m() == 150
        assert t.duration_s() == 75

    def test_position_at(self):
        t = Trajectory((Point(0, 0), Point(100, 0)), 2.0)
        assert t.position_at(0) == Point(0, 0)
        assert t.position_at(25) == Point(50, 0)
        assert t.position_at(999) == Point(100, 0)  # clamped

    def test_position_multi_leg(self):
        t = Trajectory((Point(0, 0), Point(100, 0), Point(100, 100)), 1.0)
        assert t.position_at(150) == Point(100, 50)

    def test_sample_rate(self):
        t = Trajectory((Point(0, 0), Point(100, 0)), 1.0)  # 100 s
        samples = t.sample(0.5)  # every 2 s
        assert len(samples) == 51
        assert samples[0] == (0.0, Point(0, 0))
        with pytest.raises(ValueError):
            t.sample(0)

    @pytest.mark.parametrize(
        "length_m,rate_hz",
        [(1000, 0.3), (2500, 0.3), (500, 10.0), (5000, 7.0)],
    )
    def test_sample_includes_final_boundary(self, length_m, rate_hz):
        # Regression: the old ``t += period`` accumulation drifted a
        # few ULPs high over long walks and skipped the final on-grid
        # sample — at the paper's own 0.2-0.4 Hz scan band a 1 km walk
        # lost its last scan.  Index-based times are exact.
        t = Trajectory((Point(0, 0), Point(length_m, 0)), 1.0)
        samples = t.sample(rate_hz)
        expected = int(t.duration_s() * rate_hz + 1e-9) + 1
        assert len(samples) == expected
        last_t, last_p = samples[-1]
        period = 1.0 / rate_hz
        assert last_t == (expected - 1) * period
        assert last_p == Point(length_m, 0)
        # Sample times sit exactly on the grid, no accumulated error.
        assert all(t_i == i * period for i, (t_i, _) in enumerate(samples))

    def test_epoch_positions_span_the_walk(self):
        t = Trajectory((Point(0, 0), Point(100, 0)), 1.0)
        positions = t.epoch_positions(5)
        assert positions[0] == Point(0, 0)
        assert positions[-1] == Point(100, 0)
        assert positions[2] == Point(50, 0)
        assert t.epoch_positions(1) == [Point(0, 0)]
        with pytest.raises(ValueError):
            t.epoch_positions(0)

    def test_grid_walk_serpentine(self):
        t = grid_walk(0, 0, 100, 100, street_pitch=50)
        # three sweeps: y=0, 50, 100 alternating direction
        assert t.waypoints[0] == Point(0, 0)
        assert t.waypoints[1] == Point(100, 0)
        assert t.waypoints[2] == Point(100, 50)
        with pytest.raises(ValueError):
            grid_walk(0, 0, 10, 10, street_pitch=0)

    def test_line_walk_passes(self):
        t = line_walk(Point(0, 0), Point(10, 0), passes=2)
        assert t.waypoints == (Point(0, 0), Point(10, 0), Point(10, 0), Point(0, 0))
        with pytest.raises(ValueError):
            line_walk(Point(0, 0), Point(1, 0), passes=0)

    def test_random_walk_bounded(self):
        rng = random.Random(3)
        t = random_walk(Point(250, 250), extent=500, legs=10, rng=rng)
        for p in t.waypoints:
            assert 0 <= p.x <= 500 and 0 <= p.y <= 500
        with pytest.raises(ValueError):
            random_walk(Point(0, 0), 100, legs=0, rng=rng)


class TestBuildingsAlong:
    @pytest.fixture(scope="class")
    def city(self):
        return make_city("gridport", seed=0)

    def test_track_follows_the_walk(self, city):
        first = city.buildings[0].centroid()
        last = city.buildings[-1].centroid()
        walk = Trajectory((first, last), 1.4)
        track = buildings_along(walk, city, epochs=6)
        assert len(track) == 6
        assert track[0] == city.buildings[0].id
        assert track[-1] == city.buildings[-1].id
        assert all(city.building(b) is not None for b in track)

    def test_candidates_restrict_the_snap(self, city):
        first = city.buildings[0].centroid()
        last = city.buildings[-1].centroid()
        walk = Trajectory((first, last), 1.4)
        allowed = [city.buildings[3].id, city.buildings[-4].id]
        track = buildings_along(walk, city, epochs=5, candidates=allowed)
        assert set(track) <= set(allowed)
        # Walking from one end to the other crosses the midpoint:
        # both candidates appear.
        assert set(track) == set(allowed)

    def test_candidate_tie_breaks_on_id(self):
        # Two candidates exactly equidistant from every sample: the
        # lowest id wins, whatever order the candidates arrive in.
        # (Real centroids differ by ULPs, so pin them on integers.)
        class _Square:
            def __init__(self, bid, center):
                self.id = bid
                self._center = center

            def centroid(self):
                return self._center

        class _TwoBuildings:
            def __init__(self):
                self._by_id = {
                    4: _Square(4, Point(0.0, 0.0)),
                    9: _Square(9, Point(10.0, 0.0)),
                }

            def building(self, bid):
                return self._by_id[bid]

        walk = Trajectory((Point(5.0, -3.0), Point(5.0, 3.0)), 1.4)
        track = buildings_along(
            walk, _TwoBuildings(), epochs=3, candidates=[9, 4]
        )
        assert track == [4, 4, 4]

    def test_empty_candidates_rejected(self, city):
        walk = Trajectory((Point(0, 0), Point(10, 0)), 1.4)
        with pytest.raises(ValueError, match="empty"):
            buildings_along(walk, city, epochs=3, candidates=[])


class TestSurvey:
    @staticmethod
    def simple_dataset():
        aps = [
            AccessPoint(0, Point(10, 5), 1),
            AccessPoint(1, Point(60, 5), 2),
            AccessPoint(2, Point(500, 500), 3),  # out of reach
        ]
        trajectory = Trajectory((Point(0, 0), Point(100, 0)), speed_mps=10.0)
        detection = FadingDetection(reliable_range=20, max_range=21)
        return run_survey(
            "test", aps, trajectory, detection, random.Random(0), rate_hz=1.0
        )

    def test_scan_count(self):
        ds = self.simple_dataset()
        assert ds.measurement_count() == 11  # 10 s walk at 1 Hz inclusive

    def test_unique_aps(self):
        ds = self.simple_dataset()
        assert ds.unique_aps() == {0, 1}
        assert ds.unique_ap_count() == 2

    def test_reliable_detection_always_heard(self):
        ds = self.simple_dataset()
        scan_at_10 = ds.scans[1]  # position (10, 0): 5 m from AP 0
        assert 0 in scan_at_10.heard

    def test_far_ap_never_heard(self):
        ds = self.simple_dataset()
        for scan in ds.scans:
            assert 2 not in scan.heard

    def test_table1_row(self):
        ds = self.simple_dataset()
        assert table1_row(ds) == ("test", 11, 2)


class TestAnalysis:
    @staticmethod
    def dataset_with(scans):
        return ScanDataset(area="x", scans=scans, ap_count=10)

    def test_macs_cdf(self):
        ds = self.dataset_with(
            [
                Scan(0, 0.0, Point(0, 0), frozenset({1, 2})),
                Scan(1, 1.0, Point(1, 0), frozenset({1})),
                Scan(2, 2.0, Point(2, 0), frozenset()),
            ]
        )
        cdf = macs_per_scan_cdf(ds)
        assert cdf.median() == 1
        assert cdf.values == (0, 1, 2)

    def test_macs_cdf_empty_raises(self):
        with pytest.raises(ValueError):
            macs_per_scan_cdf(self.dataset_with([]))

    def test_sighting_locations(self):
        ds = self.dataset_with(
            [
                Scan(0, 0.0, Point(0, 0), frozenset({7})),
                Scan(1, 1.0, Point(5, 0), frozenset({7, 8})),
            ]
        )
        locs = ap_sighting_locations(ds)
        assert len(locs[7]) == 2
        assert len(locs[8]) == 1

    def test_location_spread_basics(self):
        assert location_spread([Point(0, 0)]) == 0
        assert location_spread([Point(0, 0), Point(3, 4)]) == 5
        with pytest.raises(ValueError):
            location_spread([])

    def test_location_spread_max_pairwise(self):
        pts = [Point(0, 0), Point(10, 0), Point(5, 1), Point(2, -3)]
        assert location_spread(pts) == 10

    def test_location_spread_hull_path_matches_bruteforce(self):
        rng = random.Random(1)
        pts = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)]
        exact = max(
            a.distance_to(b) for i, a in enumerate(pts) for b in pts[i + 1:]
        )
        assert location_spread(pts) == pytest.approx(exact)

    def test_location_spread_collinear_large(self):
        # Degenerate hull input must not crash (scipy QhullError path).
        pts = [Point(float(i), 0.0) for i in range(100)]
        assert location_spread(pts) == 99

    def test_spread_cdf_min_sightings(self):
        ds = self.dataset_with(
            [
                Scan(0, 0.0, Point(0, 0), frozenset({1, 2})),
                Scan(1, 1.0, Point(30, 0), frozenset({1})),
            ]
        )
        cdf = spread_cdf(ds, min_sightings=2)
        assert len(cdf) == 1  # only AP 1 was seen twice
        assert cdf.median() == 30

    def test_spread_cdf_no_qualifying_aps(self):
        ds = self.dataset_with([Scan(0, 0.0, Point(0, 0), frozenset({1}))])
        with pytest.raises(ValueError):
            spread_cdf(ds)

    def test_common_ap_pairs(self):
        ds = self.dataset_with(
            [
                Scan(0, 0.0, Point(0, 0), frozenset({1, 2, 3})),
                Scan(1, 1.0, Point(100, 0), frozenset({2, 3, 4})),
                Scan(2, 2.0, Point(10000, 0), frozenset({1})),
            ]
        )
        pairs = common_ap_pairs(ds, max_distance=500)
        assert pairs == [(100.0, 2)]

    def test_common_ap_pairs_stride(self):
        ds = self.dataset_with(
            [Scan(i, float(i), Point(i * 10.0, 0), frozenset({1})) for i in range(10)]
        )
        all_pairs = common_ap_pairs(ds, max_distance=1000, stride=1)
        strided = common_ap_pairs(ds, max_distance=1000, stride=2)
        assert len(strided) < len(all_pairs)
        with pytest.raises(ValueError):
            common_ap_pairs(ds, stride=0)

    def test_common_ap_bins(self):
        ds = self.dataset_with(
            [
                Scan(0, 0.0, Point(0, 0), frozenset({1, 2})),
                Scan(1, 1.0, Point(30, 0), frozenset({1})),
                Scan(2, 2.0, Point(120, 0), frozenset({2})),
            ]
        )
        bins = common_ap_bins(ds, bin_width=50, max_distance=500)
        assert bins[0].lo == 0
        assert bins[0].p50 == 1  # the (0,30) pair shares AP 1


class TestStudyIntegration:
    """Slow-ish integration checks on a down-scaled study."""

    def test_survey_on_real_city(self):
        from repro.city import grid_downtown
        from repro.mesh import place_aps

        city = grid_downtown(seed=0, blocks_x=3, blocks_y=3)
        aps = place_aps(city, density=1 / 50, rng=random.Random(0))
        min_x, min_y, max_x, max_y = city.bounds()
        trajectory = grid_walk(min_x, min_y, max_x, max_y, street_pitch=104)
        ds = run_survey(
            "mini-downtown",
            aps,
            trajectory,
            FadingDetection(reliable_range=30, max_range=90),
            random.Random(0),
            rate_hz=0.3,
        )
        assert ds.measurement_count() > 5
        assert ds.unique_ap_count() > 20
        cdf = macs_per_scan_cdf(ds)
        assert cdf.median() > 5
