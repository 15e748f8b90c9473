"""Beacon scanning: turning trajectories into measurement records.

Each measurement is what the paper's Pineapple / TP-Link rig recorded:
a GPS location plus the list of BSSIDs whose beacon frames were heard
there.  Detection follows the :class:`~repro.sim.radio.FadingDetection`
model — reliable close in, probabilistic out to a maximum range, which
is what makes per-AP location *spread* (Fig 1b) meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..geometry import GridIndex, Point
from ..mesh import AccessPoint
from ..sim import FadingDetection
from .trajectory import Trajectory


@dataclass(frozen=True)
class Scan:
    """One measurement: a location, a timestamp, and the BSSIDs heard."""

    index: int
    time_s: float
    position: Point
    heard: frozenset[int]

    @property
    def mac_count(self) -> int:
        """Number of distinct MAC addresses seen in this measurement."""
        return len(self.heard)


@dataclass
class ScanDataset:
    """All measurements from one survey area."""

    area: str
    scans: list[Scan]
    ap_count: int

    def measurement_count(self) -> int:
        """Table 1's '# Measurements' column."""
        return len(self.scans)

    def unique_aps(self) -> set[int]:
        """Ids of all APs heard at least once."""
        seen: set[int] = set()
        for scan in self.scans:
            seen |= scan.heard
        return seen

    def unique_ap_count(self) -> int:
        """Table 1's '# Unique APs' column."""
        return len(self.unique_aps())


def run_survey(
    area: str,
    aps: list[AccessPoint],
    trajectory: Trajectory,
    detection: FadingDetection,
    rng: random.Random,
    rate_hz: float = 0.3,
) -> ScanDataset:
    """Walk a trajectory and record beacon scans.

    Args:
        area: dataset label ("downtown", "campus", …).
        aps: ground-truth APs of the surveyed area.
        trajectory: the survey path.
        detection: radio detection model (beacons are heard much
            farther than usable data range).
        rng: randomness for per-scan detection sampling.
        rate_hz: scan rate; the paper used 0.2-0.4 Hz.
    """
    index: GridIndex[int] = GridIndex(cell_size=max(detection.max_range, 1.0))
    positions = {ap.id: ap.position for ap in aps}
    for ap in aps:
        index.insert(ap.id, ap.position)
    scans: list[Scan] = []
    for i, (t, pos) in enumerate(trajectory.sample(rate_hz)):
        heard = frozenset(
            ap_id
            for ap_id in index.query_radius(pos, detection.max_range)
            if detection.detects(pos, positions[ap_id], rng)
        )
        scans.append(Scan(index=i, time_s=t, position=pos, heard=heard))
    return ScanDataset(area=area, scans=scans, ap_count=len(aps))
