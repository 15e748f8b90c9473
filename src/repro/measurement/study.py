"""The four-area war-driving study of §2 (Table 1, Figures 1-2).

The paper surveyed downtown Boston, the MIT campus, a residential
area, and the Charles river banks.  We survey the synthetic analogues:
a downtown grid, the campus preset, the residential preset, and a
river city walked along both banks.  Radio detection parameters differ
per area (open water carries beacons much farther than an urban
canyon), which is what produces the paper's spread ordering
(campus smallest, river largest).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..city import City, campus, grid_downtown, residential, river_city
from ..geometry import Point
from ..mesh import place_aps
from ..sim import FadingDetection
from .scanner import ScanDataset, run_survey
from .trajectory import Trajectory, grid_walk, line_walk, random_walk


@dataclass(frozen=True)
class AreaSpec:
    """Everything needed to survey one area."""

    name: str
    city: City
    trajectory: Trajectory
    detection: FadingDetection
    ap_density: float
    rate_hz: float


def _downtown_spec(seed: int) -> AreaSpec:
    city = grid_downtown(seed=seed, blocks_x=10, blocks_y=10, name="downtown")
    min_x, min_y, max_x, max_y = city.bounds()
    pitch = 104.0  # walk every street of the 90+14 m grid
    trajectory = grid_walk(min_x - 7, min_y - 7, max_x + 7, max_y + 7, pitch)
    return AreaSpec(
        name="downtown",
        city=city,
        trajectory=trajectory,
        # Dense commercial deployments beacon on many BSSIDs: the
        # *effective* beacon density is far above the routed-AP density.
        ap_density=1.0 / 26.0,
        detection=FadingDetection(reliable_range=30.0, max_range=85.0),
        rate_hz=0.35,
    )


def _campus_spec(seed: int) -> AreaSpec:
    city = campus(seed=seed, name="campus")
    min_x, min_y, max_x, max_y = city.bounds()
    extent = max(max_x - min_x, max_y - min_y)
    rng = random.Random(seed + 1)
    trajectory = random_walk(
        Point((min_x + max_x) / 2, (min_y + max_y) / 2), extent, legs=20, rng=rng
    )
    return AreaSpec(
        name="campus",
        city=city,
        trajectory=trajectory,
        # Institutional networks: fewer, managed radios deep in thick
        # buildings, heard over a short range only.
        ap_density=1.0 / 10.0,
        detection=FadingDetection(reliable_range=12.0, max_range=50.0),
        rate_hz=0.3,
    )


def _residential_spec(seed: int) -> AreaSpec:
    city = residential(seed=seed, blocks_x=6, blocks_y=6, name="residential")
    min_x, min_y, max_x, max_y = city.bounds()
    trajectory = grid_walk(min_x, min_y, max_x, max_y, street_pitch=134.0 * 2)
    return AreaSpec(
        name="residential",
        city=city,
        trajectory=trajectory,
        # Every household runs an AP (often several BSSIDs), but houses
        # are small: high count per area, modest per scan.
        ap_density=1.0 / 18.0,
        detection=FadingDetection(reliable_range=25.0, max_range=95.0),
        rate_hz=0.25,
    )


def _river_spec(seed: int) -> AreaSpec:
    city = river_city(seed=seed, bridges=0, blocks_x=14, blocks_y=6, name="river")
    min_x, min_y, max_x, max_y = city.bounds()
    mid_y = (min_y + max_y) / 2.0
    # Walk along both banks (the paper biked the Charles river banks);
    # the river itself is 150 m wide, so the far bank's APs are heard
    # only thanks to open-water propagation.
    north = line_walk(Point(min_x, mid_y + 85), Point(max_x, mid_y + 85))
    south = line_walk(Point(max_x, mid_y - 85), Point(min_x, mid_y - 85))
    trajectory = Trajectory(north.waypoints + south.waypoints, speed_mps=1.7)  # bike
    return AreaSpec(
        name="river",
        city=city,
        trajectory=trajectory,
        ap_density=1.0 / 105.0,
        detection=FadingDetection(reliable_range=50.0, max_range=150.0),
        rate_hz=0.3,
    )


_AREA_BUILDERS = {
    "downtown": _downtown_spec,
    "campus": _campus_spec,
    "residential": _residential_spec,
    "river": _river_spec,
}

AREA_NAMES = tuple(_AREA_BUILDERS)


def _area_seed(seed: int, name: str) -> int:
    """Stable per-area RNG seed (``hash()`` is randomised per process,
    which would make the surveys differ from run to run)."""
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def survey_area(seed: int, name: str) -> ScanDataset:
    """Run one area's survey, self-contained and deterministically
    seeded — one trial of the study."""
    spec = _AREA_BUILDERS[name](seed)
    rng = random.Random(_area_seed(seed, name))
    aps = place_aps(spec.city, density=spec.ap_density, rng=rng)
    return run_survey(
        area=spec.name,
        aps=aps,
        trajectory=spec.trajectory,
        detection=spec.detection,
        rng=rng,
        rate_hz=spec.rate_hz,
    )


def _survey_task(task: tuple[int, str]) -> ScanDataset:
    """Single-argument wrapper for TrialRunner.map."""
    return survey_area(*task)


def run_study(seed: int = 0, runner=None) -> list[ScanDataset]:
    """Run the full four-area measurement study.

    ``runner`` (a :class:`repro.experiments.parallel.TrialRunner`)
    runs the four independent area surveys as trials; the datasets
    come back in Table 1 order.
    """
    tasks = [(seed, name) for name in AREA_NAMES]
    if runner is None:
        return [_survey_task(task) for task in tasks]
    return runner.map(_survey_task, tasks)
