"""Tests for the scenario engine: timelines, fault injection, recovery.

Covers the ISSUE's acceptance criteria: the river-flood timeline must
split the mesh into islands with degraded delivery and recover after
the bridge-AP epoch; results must be bit-identical across worker
counts; and the building-graph version must bump exactly once per
mutating epoch.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import WorldSpec
from repro.geometry import Point, Polygon
from repro.scenario import (
    APChurn,
    Damage,
    DeployBridges,
    GridOutage,
    PowerRestored,
    ScenarioDriver,
    ScenarioResult,
    ScenarioSpec,
    make_scenario,
    run_scenario,
    scenario_names,
)


def _rect(x0, y0, x1, y1):
    return Polygon((Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)))


def _small_spec(**overrides):
    """A cheap timeline on the low-density preset for unit tests."""
    defaults = dict(
        name="test",
        world=WorldSpec("suburbia", seed=1),
        epochs=3,
        epoch_hours=6.0,
        events=(GridOutage(epoch=0),),
        flows=8,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_needs_epochs(self):
        with pytest.raises(ValueError, match="at least one epoch"):
            _small_spec(epochs=0)

    def test_needs_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            _small_spec(epoch_hours=0.0)

    def test_needs_flows(self):
        with pytest.raises(ValueError, match="flow"):
            _small_spec(flows=0)

    def test_event_outside_timeline(self):
        with pytest.raises(ValueError, match="outside"):
            _small_spec(events=(GridOutage(epoch=7),))

    def test_churn_validation(self):
        with pytest.raises(ValueError, match="rate"):
            APChurn(epoch=0, until_epoch=1, rate=1.5)
        with pytest.raises(ValueError, match="window"):
            APChurn(epoch=3, until_epoch=1, rate=0.1)
        with pytest.raises(ValueError, match="down_epochs"):
            APChurn(epoch=0, until_epoch=1, rate=0.1, down_epochs=0)

    def test_stream_folds_identity(self):
        a = _small_spec()
        b = _small_spec(name="other")
        c = _small_spec(world=WorldSpec("suburbia", seed=2))
        assert a.stream() != b.stream()
        assert a.stream() != c.stream()

    def test_describe(self):
        assert GridOutage(epoch=0).describe() == "grid-outage(citywide)"
        assert "regional" in GridOutage(epoch=0, region=_rect(0, 0, 1, 1)).describe()
        assert PowerRestored(epoch=0).describe() == "power-restored(all)"
        assert Damage(epoch=0, area=_rect(0, 0, 1, 1)).describe() == "damage"
        assert "0.2" in APChurn(epoch=0, until_epoch=1, rate=0.2).describe()
        assert DeployBridges(epoch=0).describe() == "deploy-bridges"


class TestDriver:
    def test_battery_drain_thins_mesh(self):
        result = run_scenario(_small_spec())
        alive = [e.alive_aps for e in result.epochs]
        # Citywide outage at hour 0: everything is up at the outage
        # instant, then unbacked APs die and batteries drain.
        assert alive[0] == result.initial_aps
        assert alive[0] > alive[1] >= alive[2]
        assert result.epochs[0].delivery_rate >= result.epochs[-1].delivery_rate

    def test_epoch_reports_are_complete(self):
        result = run_scenario(_small_spec())
        assert len(result.epochs) == 3
        for e in result.epochs:
            assert e.flows == 8
            assert 0 <= e.delivered_flows <= e.simulated_flows <= e.flows
            assert e.delivery_rate == e.delivered_flows / e.flows
            assert e.largest_island <= e.alive_aps

    def test_power_restored_revives(self):
        spec = _small_spec(
            epochs=4,
            events=(GridOutage(epoch=0), PowerRestored(epoch=2)),
        )
        result = run_scenario(spec)
        alive = [e.alive_aps for e in result.epochs]
        assert alive[1] < alive[0]
        assert alive[2] == result.initial_aps  # grid back: everyone up
        assert alive[3] == result.initial_aps

    def test_churn_is_temporary_and_seeded(self):
        spec = _small_spec(
            epochs=4,
            events=(APChurn(epoch=1, until_epoch=1, rate=0.2, down_epochs=1),),
        )
        r1 = run_scenario(spec)
        r2 = run_scenario(spec)
        # The manifest block (wall time, RSS) is the one intentionally
        # non-deterministic part; everything else is byte-identical.
        assert r1.to_json(manifest=False) == r2.to_json(manifest=False)
        assert r1.manifest is not None and r2.manifest is not None
        alive = [e.alive_aps for e in r1.epochs]
        assert alive[1] < alive[0]  # churn window knocks ~20% out
        assert alive[2] > alive[1]  # and they recover afterwards

    def test_version_bumps_exactly_once_per_mutating_epoch(self):
        """Satellite regression: one patch, one version bump per epoch."""
        area = _rect(-50.0, -50.0, 150.0, 900.0)
        spec = _small_spec(
            epochs=4,
            events=(Damage(epoch=1, area=area),),
        )
        result = run_scenario(spec)
        versions = [e.graph_version for e in result.epochs]
        mutated = [e.mutated for e in result.epochs]
        assert mutated == [False, True, False, False]
        assert versions[1] == versions[0] + 1  # exactly one bump
        assert versions[2] == versions[1] == versions[3]

    def test_overlapping_damage_in_one_epoch(self):
        """Two areas covering the same buildings are one removal each:
        the epoch patches once instead of raising KeyError."""
        west = _rect(-50.0, -50.0, 150.0, 900.0)
        east = _rect(100.0, -50.0, 300.0, 900.0)
        spec = _small_spec(
            events=(Damage(epoch=1, area=west), Damage(epoch=1, area=east)),
        )
        with ScenarioDriver(spec) as driver:
            before = set(driver.world.building_graph)
            result = driver.run()
            after = set(driver.world.building_graph)
        centroid = {b.id: b.centroid() for b in driver.world.city.buildings}
        assert any(
            west.contains(centroid[b]) and east.contains(centroid[b])
            for b in before - after
        )
        assert not any(
            west.contains(centroid[b]) or east.contains(centroid[b]) for b in after
        )
        assert [e.mutated for e in result.epochs] == [False, True, False]
        versions = [e.graph_version for e in result.epochs]
        assert versions[1] == versions[0] + 1

    def test_bridge_link_to_building_damaged_same_epoch(self):
        """A bridge planned at the start of an epoch may anchor on a
        building that the same epoch's damage then removes; the link is
        dropped, the rest of the patch lands."""
        spec = ScenarioSpec(
            name="bridge-then-damage",
            world=WorldSpec("gridport", seed=0),
            epochs=5,
            epoch_hours=4.0,
            flows=8,
            battery_fraction=0.5,
            generator_fraction=0.05,
            events=(
                Damage(epoch=1, area=_rect(-50.0, 300.0, 900.0, 530.0)),
                # The bridge joins south to north; then the north goes.
                DeployBridges(epoch=3, min_island_size=5),
                Damage(epoch=3, area=_rect(-50.0, 530.0, 900.0, 900.0)),
            ),
        )
        with ScenarioDriver(spec) as driver:
            result = driver.run()
            bg = driver.world.building_graph
            assert max(bg.centroid(b).y for b in bg) < 300.0
        assert [e.mutated for e in result.epochs] == [False, True, False, True, False]
        assert result.epochs[3].deployed_aps > 0

    def test_no_mutation_means_no_planner_work(self):
        result = run_scenario(_small_spec(epochs=3, events=()))
        later = result.epochs[1:]
        assert all(not e.mutated for e in result.epochs)
        assert all(e.replans == 0 for e in later)
        assert all(
            e.route_cache_hits == 0 and e.route_cache_misses == 0
            for e in later
        )

    def test_driver_context_manager(self):
        with ScenarioDriver(_small_spec(epochs=1)) as driver:
            result = driver.run()
        assert len(result.epochs) == 1
        assert len(driver.epoch_wall_s) == 1  # one wall time per epoch


class TestResultSerialization:
    def test_json_round_trip(self):
        result = run_scenario(_small_spec(epochs=2))
        data = json.loads(result.to_json(indent=2))
        back = ScenarioResult.from_dict(data)
        assert back.to_json() == result.to_json()
        assert back.epochs == result.epochs

    def test_aggregates_match_epochs(self):
        result = run_scenario(_small_spec(epochs=2))
        d = result.to_dict()
        assert d["aggregates"]["total_replans"] == sum(
            e.replans for e in result.epochs
        )
        assert d["aggregates"]["min_delivery_rate"] == min(
            e.delivery_rate for e in result.epochs
        )


class TestRiverFloodAcceptance:
    """The ISSUE's acceptance scenario, end to end."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(make_scenario("river-flood", seed=0))

    def test_flood_splits_islands_and_degrades_delivery(self, result):
        healthy = result.epochs[0]
        flooded = result.epochs[1]
        assert healthy.islands == 1
        assert flooded.islands > 1
        assert flooded.alive_aps < healthy.alive_aps
        assert flooded.delivery_rate < healthy.delivery_rate

    def test_bridge_epoch_recovers_delivery(self, result):
        flooded = result.epochs[2]
        bridged = result.epochs[3]
        assert bridged.deployed_aps > 0
        assert bridged.islands < flooded.islands  # islands merged
        assert bridged.delivery_rate > flooded.delivery_rate
        assert result.final_delivery_rate > result.min_delivery_rate

    def test_bridge_mutates_map_once(self, result):
        bridged = result.epochs[3]
        assert bridged.mutated
        assert bridged.graph_version == result.epochs[2].graph_version + 1
        assert bridged.replans > 0  # broken flows replanned over the link


class TestWorkerInvariance:
    def test_river_flood_identical_across_workers(self):
        """ISSUE acceptance: workers 4 JSON == workers 1 JSON."""
        spec = make_scenario("river-flood", seed=0)
        serial = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=4)
        assert serial.to_json(manifest=False) == parallel.to_json(manifest=False)


class TestLibrary:
    def test_five_canned_scenarios(self):
        names = scenario_names()
        assert len(names) == 5
        assert "river-flood" in names
        for name in names:
            spec = make_scenario(name, seed=7)
            assert spec.world.seed == 7
            assert spec.description

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="known scenarios"):
            make_scenario("volcano")

    def test_bridge_recovery_targets_riverton(self):
        spec = make_scenario("bridge-ap-recovery")
        assert spec.world.city_name == "riverton"


class TestScenarioCLI:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_json(self, capsys):
        code = main(["scenario", "run", "bridge-ap-recovery", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "bridge-ap-recovery"
        assert data["city"] == "riverton"
        result = ScenarioResult.from_dict(data)
        # riverton starts islanded and ends bridged.
        assert result.epochs[0].islands == 2
        assert result.epochs[-1].islands == 1
        assert result.final_delivery_rate > result.epochs[0].delivery_rate

    def test_run_table(self, capsys):
        assert main(["scenario", "run", "bridge-ap-recovery", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "bridge-ap-recovery" in out
        assert "deploy-bridges" in out

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "volcano"])
