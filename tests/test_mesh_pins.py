"""Exact digests of the AP mesh every preset world is built on.

Each pin is a blake2b over the CSR ``(indptr, indices)``, the AP
positions, building ids and override ranges of ``place_aps`` plus
``APGraph`` at seed 0, with and without rooftop APs (whose 120 m range
also changes the grid cell size).  Any change to placement, the
neighbour join or the neighbour order moves a digest.

CI checks the metro-20k digest under two hash seeds:
``python -c "from tests.test_mesh_pins import check_metro; check_metro()"``.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.city import CITY_PRESETS, make_city
from repro.experiments.common import PAPER_AP_DENSITY, PAPER_TRANSMISSION_RANGE
from repro.mesh import APGraph, place_aps

PINS = {
    ("gridport", 0.0): "f3484c8914f951ad",
    ("gridport", 0.3): "15a04d52e9ad0e5f",
    ("collegium", 0.0): "9cda3faad9e9273f",
    ("collegium", 0.3): "bc01a3a73ce31ab4",
    ("suburbia", 0.0): "5e10a2fd107db205",
    ("suburbia", 0.3): "6347323882449b2b",
    ("pontsville", 0.0): "e2a037cf408c12cb",
    ("pontsville", 0.3): "41d0aec4fcf1fecf",
    ("riverton", 0.0): "c2b9ff203c256264",
    ("riverton", 0.3): "c8cf74172ee4ebe6",
    ("parkside", 0.0): "f2fd906c6eb3f4b5",
    ("parkside", 0.3): "f39c180cb62b45f4",
    ("capitolia", 0.0): "95c02e57e6ad43c7",
    ("capitolia", 0.3): "afd5fe6c45d59066",
    ("oldtown", 0.0): "f47ae2ccd126022e",
    ("oldtown", 0.3): "011260826bd39ca8",
}

METRO_PIN = ("metro-20k", 0.0, "3043b524b3bd5304")


def build_mesh(city_name: str, rooftop_fraction: float) -> APGraph:
    aps = place_aps(
        make_city(city_name, seed=0),
        density=PAPER_AP_DENSITY,
        rng=random.Random(0),
        rooftop_fraction=rooftop_fraction,
    )
    return APGraph(aps, transmission_range=PAPER_TRANSMISSION_RANGE)


def mesh_digest(graph: APGraph) -> str:
    indptr, indices = graph.csr()
    px, py = graph.position_arrays()
    buildings = np.array(graph.building_id_list(), dtype=np.int64)
    ranges = np.array(
        [np.nan if ap.range_m is None else ap.range_m for ap in graph.aps],
        dtype=np.float64,
    )
    h = hashlib.blake2b(digest_size=8)
    for arr in (
        indptr.astype(np.int64),
        indices.astype(np.int32),
        px,
        py,
        buildings,
        ranges,
    ):
        h.update(arr.tobytes())
    return h.hexdigest()


def check_metro() -> None:
    """Print the metro-20k digest; exit non-zero when it is not the pin."""
    name, fraction, pin = METRO_PIN
    digest = mesh_digest(build_mesh(name, fraction))
    print(name, fraction, digest)
    if digest != pin:
        raise SystemExit(f"{name}: mesh digest {digest} != pinned {pin}")


def test_every_preset_is_pinned():
    assert {name for name, _ in PINS} == set(CITY_PRESETS)


@pytest.mark.parametrize(
    "city_name,rooftop_fraction", list(PINS), ids=[f"{n}-{f}" for n, f in PINS]
)
def test_mesh_pinned(city_name, rooftop_fraction):
    assert mesh_digest(build_mesh(city_name, rooftop_fraction)) == PINS[
        (city_name, rooftop_fraction)
    ]
