"""Tests for predictor calibration and heterogeneous AP ranges."""

import random

import pytest

from repro.city import make_city
from repro.experiments import format_calibration, run_calibration
from repro.geometry import Point
from repro.mesh import APGraph, AccessPoint, find_islands, place_aps


class TestCalibration:
    @pytest.fixture(scope="class")
    def result(self):
        return run_calibration("gridport", seed=0)

    def test_counts_consistent(self, result):
        assert 0 <= result.predicted_with_link <= result.predicted_edges
        assert 0 <= result.actual_predicted <= result.actual_pairs
        assert sum(b.edges for b in result.bins) == result.predicted_edges
        assert sum(b.linked for b in result.bins) == result.predicted_with_link

    def test_precision_recall_range(self, result):
        assert 0.5 < result.precision <= 1.0
        assert 0.9 < result.recall <= 1.0

    def test_gap_curve_monotone(self, result):
        rates = [b.link_rate for b in result.bins if b.edges >= 20]
        assert rates[0] > rates[-1]

    def test_format(self, result):
        out = format_calibration(result)
        assert "precision" in out
        assert "recall" in out


class TestHeterogeneousRanges:
    def test_placement_validation(self):
        city = make_city("gridport", seed=0)
        with pytest.raises(ValueError):
            place_aps(city, rooftop_fraction=-0.1)
        with pytest.raises(ValueError):
            place_aps(city, rooftop_fraction=1.5)
        with pytest.raises(ValueError):
            place_aps(city, rooftop_fraction=0.1, rooftop_range=0)

    def test_rooftop_fraction_applied(self):
        city = make_city("gridport", seed=0)
        aps = place_aps(city, rng=random.Random(0), rooftop_fraction=0.25,
                        rooftop_range=150)
        rooftop = [ap for ap in aps if ap.range_m is not None]
        assert 0.15 < len(rooftop) / len(aps) < 0.35
        assert all(ap.range_m == 150 for ap in rooftop)

    def test_zero_fraction_no_rooftops(self):
        city = make_city("gridport", seed=0)
        aps = place_aps(city, rng=random.Random(0))
        assert all(ap.range_m is None for ap in aps)

    def test_graph_rejects_bad_range(self):
        with pytest.raises(ValueError):
            APGraph([AccessPoint(0, Point(0, 0), 1, range_m=-5)])

    def test_effective_range(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(0, 0), 1, range_m=120),
        ]
        g = APGraph(aps, transmission_range=50)
        assert g.effective_range(0) == 50
        assert g.effective_range(1) == 120

    def test_bidirectional_min_rule(self):
        """A long-range AP cannot link to a short-range AP beyond the
        short one's reach (both ends must hear each other)."""
        aps = [
            AccessPoint(0, Point(0, 0), 1, range_m=200),
            AccessPoint(1, Point(100, 0), 2),  # default 50 m
            AccessPoint(2, Point(150, 0), 3, range_m=200),
        ]
        g = APGraph(aps, transmission_range=50)
        assert 1 not in g.neighbors(0)  # 100 m > min(200, 50)
        assert 2 in g.neighbors(0)      # 150 m <= min(200, 200)
        assert 0 in g.neighbors(2)      # symmetric

    def test_uniform_ranges_unchanged(self):
        """With no overrides the graph matches the paper's cutoff."""
        aps = [AccessPoint(i, Point(i * 40.0, 0), i + 1) for i in range(4)]
        g = APGraph(aps, transmission_range=50)
        assert set(g.neighbors(1)) == {0, 2}

    def test_rooftops_heal_river_fracture(self):
        """§4's tall-building hypothesis, end to end."""
        city = make_city("riverton", seed=1)
        base = APGraph(place_aps(city, rng=random.Random(1)))
        boosted = APGraph(
            place_aps(city, rng=random.Random(1), rooftop_fraction=0.1,
                      rooftop_range=250)
        )
        assert len(find_islands(base)) >= 2
        base_biggest = find_islands(base)[0].size / len(base.aps)
        boosted_biggest = find_islands(boosted)[0].size / len(boosted.aps)
        assert boosted_biggest > base_biggest
        assert boosted_biggest > 0.95
