"""Crowdsourced survey simulation: why the paper collected its own data.

Footnote 1 of §2: "AP survey databases, like wigle.net, are
sporadically collected via crowdsourcing and thus are non-uniform, and
often lack precise locations."  This module simulates exactly those
two defects — popularity-biased sampling (contributors cluster around
a few hotspots) and imprecise recorded locations (GPS noise) — so the
distortion they inject into the §2 statistics can be measured against
a systematic survey of the same ground truth.
"""

from __future__ import annotations

import random

from ..geometry import GridIndex, Point
from ..mesh import AccessPoint
from ..sim import FadingDetection
from .scanner import Scan, ScanDataset


def crowdsourced_survey(
    area: str,
    aps: list[AccessPoint],
    bounds: tuple[float, float, float, float],
    detection: FadingDetection,
    rng: random.Random,
    samples: int = 500,
    hotspots: int = 4,
    hotspot_sigma_m: float = 120.0,
    gps_noise_sigma_m: float = 25.0,
) -> ScanDataset:
    """Simulate a wigle-style crowdsourced AP survey.

    Sample locations are drawn from a mixture of Gaussians centred on a
    few random hotspots (where contributors actually go) instead of a
    systematic sweep, and each scan's *recorded* position carries GPS
    noise while detection happens at the *true* position.

    Args:
        area: dataset label.
        aps: ground-truth APs.
        bounds: ``(min_x, min_y, max_x, max_y)`` of the survey area.
        detection: radio detection model.
        rng: randomness source.
        samples: number of crowdsourced measurements.
        hotspots: number of contributor hotspots.
        hotspot_sigma_m: spatial spread of contributions per hotspot.
        gps_noise_sigma_m: standard deviation of recorded-location error.

    Raises:
        ValueError: for non-positive samples or hotspot counts.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if hotspots < 1:
        raise ValueError("need at least one hotspot")
    min_x, min_y, max_x, max_y = bounds
    centers = [
        Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y))
        for _ in range(hotspots)
    ]
    index: GridIndex[int] = GridIndex(cell_size=max(detection.max_range, 1.0))
    positions = {ap.id: ap.position for ap in aps}
    for ap in aps:
        index.insert(ap.id, ap.position)

    scans: list[Scan] = []
    for i in range(samples):
        center = centers[rng.randrange(hotspots)]
        true = Point(
            min(max(rng.gauss(center.x, hotspot_sigma_m), min_x), max_x),
            min(max(rng.gauss(center.y, hotspot_sigma_m), min_y), max_y),
        )
        heard = frozenset(
            ap_id
            for ap_id in index.query_radius(true, detection.max_range)
            if detection.detects(true, positions[ap_id], rng)
        )
        recorded = Point(
            rng.gauss(true.x, gps_noise_sigma_m),
            rng.gauss(true.y, gps_noise_sigma_m),
        )
        scans.append(Scan(index=i, time_s=float(i), position=recorded, heard=heard))
    return ScanDataset(area=area, scans=scans, ap_count=len(aps))
