"""Integration tests for the experiment drivers (reduced scale)."""

import random

import pytest

from repro.experiments import (
    attempt_delivery,
    build_world,
    common_beyond,
    compare_membership,
    fig1_series,
    format_baselines,
    format_bridging,
    format_compromise,
    format_fig1,
    format_fig2,
    format_fig5,
    format_fig6,
    format_header_stats,
    format_sweep,
    format_table1,
    run_baseline_comparison,
    run_bridging,
    run_compromise_sweep,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig6,
    run_fig7,
    run_header_stats,
    run_table1,
    sample_building_pairs,
    sweep_conduit_width,
)
from repro.measurement import run_study


@pytest.fixture(scope="module")
def study():
    return run_study(seed=0)


@pytest.fixture(scope="module")
def gridport_world():
    return build_world("gridport", seed=0)


class TestCommon:
    def test_build_world_components(self, gridport_world):
        w = gridport_world
        assert len(w.city) > 100
        assert len(w.graph) > 500
        assert w.building_graph.node_count() == len(w.city)

    def test_sample_pairs_unique_and_valid(self, gridport_world):
        pairs = sample_building_pairs(gridport_world, 50, random.Random(0))
        assert len(pairs) == 50
        assert len(set(pairs)) == 50
        for s, d in pairs:
            assert s != d
            assert gridport_world.graph.aps_in_building(s)
            assert gridport_world.graph.aps_in_building(d)

    def test_attempt_delivery_fields(self, gridport_world):
        pairs = sample_building_pairs(gridport_world, 5, random.Random(1))
        outcome = attempt_delivery(gridport_world, *pairs[0], random.Random(1))
        assert outcome.reachable  # gridport is fully connected
        if outcome.delivered:
            assert outcome.transmissions > 0


class TestTable1:
    def test_rows(self, study):
        rows = run_table1(datasets=study)
        assert [r.area for r in rows] == [
            "downtown",
            "campus",
            "residential",
            "river",
            "all",
        ]
        totals = rows[-1]
        assert totals.measurements == sum(r.measurements for r in rows[:-1])

    def test_shape_matches_paper(self, study):
        rows = {r.area: r for r in run_table1(datasets=study)}
        # Downtown dominates both columns, as in the paper.
        assert rows["downtown"].measurements > rows["campus"].measurements
        assert rows["downtown"].unique_aps > rows["river"].unique_aps

    def test_format(self, study):
        out = format_table1(run_table1(datasets=study))
        assert "Table 1" in out
        assert "downtown" in out


class TestFig1:
    def test_medians_in_paper_band(self, study):
        areas = {a.area: a for a in run_fig1(datasets=study)}
        # §2: river is the worst case (~60 MACs), downtown the best (~218).
        assert areas["river"].median_macs < areas["downtown"].median_macs
        assert 30 <= areas["river"].median_macs <= 120
        assert 120 <= areas["downtown"].median_macs <= 350
        # §2: campus has the smallest spread (~54 m), river the largest (~168 m).
        spreads = {a.area: a.median_spread for a in areas.values()}
        assert min(spreads, key=spreads.get) == "campus"
        assert max(spreads, key=spreads.get) == "river"

    def test_series_export(self, study):
        areas = run_fig1(datasets=study)
        series = fig1_series(areas, points=20)
        assert set(series) == {"downtown", "campus", "residential", "river"}
        for data in series.values():
            assert len(data["macs_per_scan"]) <= 20

    def test_format(self, study):
        out = format_fig1(run_fig1(datasets=study))
        assert "Figure 1" in out


class TestFig2:
    def test_bins_shape(self, study):
        areas = run_fig2(datasets=study, stride=4)
        downtown = next(a for a in areas if a.area == "downtown")
        assert downtown.bins
        # Close pairs share more APs than distant pairs (the paper's
        # headline observation).
        first, last = downtown.bins[0], downtown.bins[-1]
        assert first.p50 > last.p50

    def test_common_beyond_100m_downtown(self, study):
        """The paper: 'we also observe a significant number of common
        APs beyond 100 m, particularly in the downtown area'."""
        areas = run_fig2(datasets=study, stride=4)
        downtown = next(a for a in areas if a.area == "downtown")
        assert common_beyond(downtown, 100.0) > 0

    def test_format(self, study):
        out = format_fig2(run_fig2(datasets=study, stride=6))
        assert "Figure 2" in out


class TestFig5:
    def test_result(self):
        result = run_fig5(seed=0, blocks=4, width_chars=60)
        assert result.building_count > 30
        assert result.ap_count > 100
        assert result.link_count > result.ap_count  # dense mesh
        assert result.largest_component_fraction > 0.9
        assert "#" in result.footprints_art
        assert "." in result.mesh_art

    def test_format(self):
        out = format_fig5(run_fig5(seed=0, blocks=3, width_chars=50))
        assert "Figure 5" in out


class TestFig6:
    def test_two_city_run(self):
        rows = run_fig6(
            seed=0, cities=["gridport", "riverton"], reach_pairs=60, delivery_pairs=8
        )
        by_city = {r.city: r for r in rows}
        # The dense grid reaches nearly everything; the bridgeless
        # river city fractures (the paper's D.C. effect).
        assert by_city["gridport"].reachability > 0.9
        assert by_city["riverton"].reachability < 0.7
        assert by_city["gridport"].deliverability > 0.6

    def test_overhead_magnitude(self):
        rows = run_fig6(seed=0, cities=["gridport"], reach_pairs=40, delivery_pairs=10)
        overhead = rows[0].median_overhead
        assert overhead is not None
        # The paper reports ~13x; anything in the 3-30x band preserves
        # the claim that overhead is tolerable-but-redundant.
        assert 3 <= overhead <= 30

    def test_format(self):
        rows = run_fig6(seed=0, cities=["gridport"], reach_pairs=20, delivery_pairs=5)
        assert "Figure 6" in format_fig6(rows)


class TestFig7:
    def test_successful_render(self):
        result = run_fig7(seed=0, city_name="gridport", width_chars=70)
        assert result.result.delivered
        assert result.conduit_ap_count > 0
        assert "*" in result.art


class TestHeaderStats:
    def test_paper_band(self):
        stats = run_header_stats(seed=0, pairs=40, metro_blocks=14)
        # §4: median 175 bits, 90%ile 225.  Same regime: order 100-250.
        assert 80 <= stats.median_bits <= 250
        assert stats.median_waypoints >= 4
        assert stats.median_compression_ratio > 1.5

    def test_format(self):
        out = format_header_stats(run_header_stats(seed=0, pairs=20, metro_blocks=10))
        assert "header" in out


class TestAblations:
    def test_width_sweep_monotone_overheadish(self):
        points = sweep_conduit_width(
            city_name="gridport", widths=(25.0, 100.0), seed=0, pairs=12
        )
        assert len(points) == 2
        # Wider conduits enrol more buildings: overhead must not shrink.
        if points[0].median_overhead and points[1].median_overhead:
            assert points[1].median_overhead >= points[0].median_overhead

    def test_membership_comparison(self):
        c = compare_membership(city_name="gridport", seed=0, pairs=10)
        assert c.attempted > 0
        if c.building_median_tx and c.position_median_tx:
            # Building-level membership rebroadcasts strictly more.
            assert c.building_median_tx >= c.position_median_tx

    def test_format_sweep(self):
        points = sweep_conduit_width(city_name="gridport", widths=(50.0,), seed=0, pairs=5)
        assert "width" in format_sweep(points, "width (m)", "Conduit width sweep")

    def test_unattempted_point_is_undefined(self):
        from repro.experiments.ablations import SweepPoint

        point = SweepPoint(50.0, delivered=0, attempted=0, median_overhead=None)
        assert point.deliverability is None
        row = format_sweep([point], "width (m)", "sweep").splitlines()[-1]
        assert [c.strip() for c in row.split("|")] == ["50.000", "-", "-", "0/0"]


class TestSecurityExperiment:
    def test_sweep_shape(self, gridport_world):
        points = run_compromise_sweep(
            fractions=(0.0, 0.3), seed=0, pairs=10, world=gridport_world
        )
        assert len(points) == 2
        clean, attacked = points
        assert clean.plain_rate >= attacked.plain_rate - 0.2
        assert attacked.resilient_rate >= attacked.plain_rate

    def test_format(self, gridport_world):
        points = run_compromise_sweep(fractions=(0.0,), seed=0, pairs=5, world=gridport_world)
        assert "Security" in format_compromise(points)


class TestBridgingExperiment:
    def test_riverton_reconnects(self):
        result = run_bridging("riverton", seed=0, pairs=60)
        assert result.islands_before >= 2
        assert result.islands_after == 1
        assert result.new_aps >= 1
        assert result.reachability_after > result.reachability_before

    def test_format(self):
        result = run_bridging("riverton", seed=0, pairs=30)
        assert "bridging" in format_bridging([result])


class TestBaselineComparison:
    def test_schemes_present(self, gridport_world):
        summaries = run_baseline_comparison(seed=0, pairs=6, world=gridport_world)
        schemes = {s.scheme for s in summaries}
        assert {"citymesh", "flood", "greedy", "gpsr", "aodv", "oracle"} <= schemes

    def test_citymesh_cheaper_than_flood(self, gridport_world):
        summaries = {
            s.scheme: s
            for s in run_baseline_comparison(seed=0, pairs=6, world=gridport_world)
        }
        cm = summaries["citymesh"]
        fl = summaries["flood"]
        assert fl.deliverability == 1.0
        if cm.mean_total_tx and fl.mean_total_tx:
            assert cm.mean_total_tx < fl.mean_total_tx / 2

    def test_format(self, gridport_world):
        out = format_baselines(run_baseline_comparison(seed=0, pairs=4, world=gridport_world))
        assert "scheme" in out
