"""Regression tests for specific bugs found during development."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.city import make_city
from repro.geometry import GridIndex, Point
from repro.mesh import APGraph, AccessPoint, find_islands, place_aps

from .reference import reference_bfs


class TestDenormalUnderflow:
    def test_radius_zero_excludes_denormal_offset(self):
        """Squared distances underflow for denormal offsets; the index
        must match Point.distance_to semantics exactly."""
        idx = GridIndex(1.0)
        idx.insert("p", Point(0.0, 8.3e-186))
        assert idx.query_radius(Point(0.0, 0.0), 0.0) == []
        assert idx.query_radius(Point(0.0, 0.0), 1e-185) == ["p"]


class TestComponentCache:
    def test_component_ids_consistent_with_bfs(self):
        city = make_city("riverton", seed=1)
        g = APGraph(place_aps(city, rng=random.Random(1)))
        labels, _ = g.component_ids()
        # Same label <=> mutually reachable (checked on a sample).
        rng = random.Random(2)
        alive = [True] * len(g.aps)
        for _ in range(20):
            u = rng.randrange(len(g.aps))
            v = rng.randrange(len(g.aps))
            same = labels[u] == labels[v]
            assert same == (v in reference_bfs(g.adjacency_lists(), [u], alive)[0])

    def test_cache_is_stable_across_calls(self):
        g = APGraph([AccessPoint(0, Point(0, 0), 1), AccessPoint(1, Point(40, 0), 2)])
        assert g.component_ids() is g.component_ids()

    def test_new_graph_gets_fresh_cache(self):
        """apply_bridges builds a new APGraph, so the cache never goes
        stale — verify the new graph recomputes."""
        from repro.mesh import apply_bridges, bridge_all_islands

        city = make_city("riverton", seed=2)
        g = APGraph(place_aps(city, rng=random.Random(2)))
        before = len(g.component_ids()[1])
        _, new_aps = bridge_all_islands(g, min_island_size=5)
        bridged = apply_bridges(g, new_aps)
        after = len(bridged.component_ids()[1])
        assert after < before  # islands merged
        # The original graph's cache is untouched.
        assert len(g.component_ids()[1]) == before


class TestFindIslandsAliveIds:
    def test_negative_alive_id_raises(self):
        """A negative id used to wrap around: ``alive={-1}`` on a 3-AP
        graph returned the island {2} instead of raising."""
        g = APGraph([AccessPoint(i, Point(40.0 * i, 0), i) for i in range(3)])
        with pytest.raises(IndexError):
            find_islands(g, alive={-1})


class TestBridgeStructuresKeepDeliberateAps:
    def test_pontsville_banks_connected(self):
        """The bridge kiosk bug: randomly placed APs left >range gaps
        along bridges; deliberate spacing must keep the banks joined."""
        city = make_city("pontsville", seed=1)
        g = APGraph(place_aps(city, rng=random.Random(1)))
        comps = find_islands(g)
        assert comps[0].size / len(g.aps) > 0.95


_HASHSEED_PROBE = """
import sys
from repro.cli import main
from repro.scenario import CongestionSpec, generate_scenario, run_scenario

spec = generate_scenario(
    "compound", seed=3, epochs=4, flows=6, mobile_flows=2,
    congestion=CongestionSpec(window_s=0.5),
)
print(run_scenario(spec).to_json(manifest=False))
sys.exit(main(["loadgen", "river-flood", "--phones", "40", "--dump-trace", "-"]))
"""


class TestHashSeedIndependence:
    def test_scenario_json_and_loadgen_trace_ignore_pythonhashseed(self):
        """No str-keyed set/dict order may reach the byte-exact outputs:
        a generated scenario's deterministic JSON and the loadgen trace
        are identical under two different ``PYTHONHASHSEED`` values."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _HASHSEED_PROBE],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr[-2000:]
            outputs.append(result.stdout)
        assert len(outputs[0]) > 10_000  # both documents were printed
        assert outputs[0] == outputs[1]
