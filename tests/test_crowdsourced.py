"""Tests for the crowdsourced-survey simulation (the §2 footnote)."""

import random

import pytest

from repro.geometry import Point
from repro.measurement import crowdsourced_survey
from repro.mesh import AccessPoint
from repro.sim import FadingDetection

DETECTION = FadingDetection(reliable_range=30.0, max_range=90.0)


def some_aps(n=50, pitch=60.0):
    side = int(n**0.5) + 1
    aps = []
    for i in range(n):
        aps.append(
            AccessPoint(i, Point((i % side) * pitch, (i // side) * pitch), i + 1)
        )
    return aps


class TestCrowdsourcedSurvey:
    def test_validation(self):
        with pytest.raises(ValueError):
            crowdsourced_survey(
                "x", some_aps(), (0, 0, 100, 100), DETECTION, random.Random(0),
                samples=0,
            )
        with pytest.raises(ValueError):
            crowdsourced_survey(
                "x", some_aps(), (0, 0, 100, 100), DETECTION, random.Random(0),
                hotspots=0,
            )

    def test_sample_count(self):
        ds = crowdsourced_survey(
            "x", some_aps(), (0, 0, 400, 400), DETECTION, random.Random(0),
            samples=120,
        )
        assert ds.measurement_count() == 120

    def test_sampling_is_clustered(self):
        """Crowdsourced positions concentrate around hotspots: the
        positional spread is far below a uniform survey's."""
        aps = some_aps(100)
        ds = crowdsourced_survey(
            "x", aps, (0, 0, 1000, 1000), DETECTION, random.Random(3),
            samples=300, hotspots=2, hotspot_sigma_m=50.0, gps_noise_sigma_m=0.0,
        )
        xs = sorted(s.position.x for s in ds.scans)
        # With 2 tight hotspots the inter-quartile spread is much less
        # than the 1000 m area.
        iqr = xs[3 * len(xs) // 4] - xs[len(xs) // 4]
        assert iqr < 600

    def test_gps_noise_moves_recorded_positions(self):
        aps = some_aps(10)
        noisy = crowdsourced_survey(
            "x", aps, (0, 0, 200, 200), DETECTION, random.Random(5),
            samples=100, gps_noise_sigma_m=40.0,
        )
        clean = crowdsourced_survey(
            "x", aps, (0, 0, 200, 200), DETECTION, random.Random(5),
            samples=100, gps_noise_sigma_m=0.0,
        )
        # Same detection randomness, different recorded positions.
        moved = sum(
            1
            for a, b in zip(noisy.scans, clean.scans)
            if a.position.distance_to(b.position) > 1.0
        )
        assert moved > 80
