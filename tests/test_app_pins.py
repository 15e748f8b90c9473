"""Exact pins for the outputs of the thinned, region and geocast policies.

``benchmarks/bench_overhead_reduction.py`` and ``benchmarks/bench_apps.py``
assert paper bands only, so a number that moved inside its band would
pass them.  Each pin here is ``config_hash`` of what those benches
compute on the seed-0 gridport world (plus a region-scoped alert), so
any change to which AP rebroadcasts moves a hash.  The reduction rows
get a world of their own: the router draws each plan's message id, and
so each thinned AP set, from one RNG, so a route planned earlier on a
shared world would move them.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.apps import Alert, broadcast_alert, geocast
from repro.experiments import build_world
from repro.geometry import Polygon
from repro.obs import config_hash
from repro.postbox import KeyPair

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
AUTHORITY = KeyPair.generate(random.Random(42), bits=512)


def _bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gridport():
    return build_world("gridport", seed=0)


def _alert(world, region):
    alert = Alert.issue(AUTHORITY, b"shelter in place", region=region)
    return broadcast_alert(
        world.city, world.graph, alert, origin_ap=0, rng=random.Random(1)
    )


def _west_half(world):
    min_x, min_y, max_x, max_y = world.city.bounds()
    return Polygon.rectangle(min_x, min_y, (min_x + max_x) / 2, max_y)


def _geocast(world):
    city = world.city
    return geocast(
        city, world.graph, world.router, city.buildings[0].id,
        city.buildings[-1].centroid(), radius=120, rng=random.Random(2),
    )


OUTPUTS = {
    # Paper, two suppression thresholds and hash thinning at p=0.5.
    "overhead_reduction": (
        lambda _: _bench("bench_overhead_reduction").reduction_table(),
        "8dd8f1422ceca3c2",
    ),
    "alert_citywide": (lambda w: _alert(w, None), "bba0def86e90452f"),
    "alert_scoped": (lambda w: _alert(w, _west_half(w)), "022ad2fa3920fb43"),
    "geocast": (_geocast, "89d19c2e4a1c4057"),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_policy_output_pinned(gridport, name):
    build, pin = OUTPUTS[name]
    assert config_hash(build(gridport)) == pin


def test_reduction_table_ignores_earlier_routes():
    """Routes planned on a shared world before the bench move the table
    on that world, and leave the bench's own table alone."""
    shared = build_world("gridport", seed=0)
    _alert(shared, None)
    _geocast(shared)
    bench = _bench("bench_overhead_reduction")
    assert config_hash(bench.run_reduction_comparison(shared, pairs=20)) == "78ad0b761efc9fb3"
    assert config_hash(bench.reduction_table()) == OUTPUTS["overhead_reduction"][1]
