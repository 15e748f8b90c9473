"""Tests for the OSM substrate: projection, parsing, footprints, writer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon
from repro.osm import (
    LocalProjection,
    OsmDocument,
    OsmNode,
    OsmParseError,
    OsmWay,
    buildings_from_document,
    parse_osm_xml,
    polygons_to_osm_xml,
)

BOSTON = LocalProjection(42.36, -71.06)

SAMPLE_XML = """
<osm version="0.6">
  <node id="1" lat="42.3600" lon="-71.0600"/>
  <node id="2" lat="42.3600" lon="-71.0595"/>
  <node id="3" lat="42.3604" lon="-71.0595"/>
  <node id="4" lat="42.3604" lon="-71.0600"/>
  <way id="100">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/><nd ref="1"/>
    <tag k="building" v="yes"/>
  </way>
  <way id="101">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="1"/>
    <tag k="highway" v="primary"/>
  </way>
</osm>
"""


class TestProjection:
    def test_reference_maps_to_origin(self):
        assert BOSTON.project(42.36, -71.06) == Point(0, 0)

    def test_latitude_degree_scale(self):
        p = BOSTON.project(42.36 + 1 / 111.19495, -71.06)  # ~1000 m north
        assert p.y == pytest.approx(1000, rel=1e-3)
        assert p.x == 0

    def test_longitude_compression_by_latitude(self):
        # At 42.36N a degree of longitude is cos(42.36) of a degree of lat.
        dx = BOSTON.project(42.36, -71.05).x
        dy = BOSTON.project(42.37, -71.06).y
        assert dx / dy * (0.01 / 0.01) == pytest.approx(math.cos(math.radians(42.36)), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalProjection(91, 0)
        with pytest.raises(ValueError):
            LocalProjection(0, 181)

    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    @settings(max_examples=50)
    def test_roundtrip(self, dlat, dlon):
        lat, lon = 42.36 + dlat, -71.06 + dlon
        back = BOSTON.unproject(BOSTON.project(lat, lon))
        assert back[0] == pytest.approx(lat, abs=1e-9)
        assert back[1] == pytest.approx(lon, abs=1e-9)


class TestModel:
    def test_way_is_closed(self):
        assert OsmWay(1, (1, 2, 3, 1)).is_closed()
        assert not OsmWay(1, (1, 2, 3)).is_closed()
        assert not OsmWay(1, (1, 1)).is_closed()

    def test_is_building(self):
        assert OsmWay(1, (), {"building": "yes"}).is_building()
        assert OsmWay(1, (), {"building": "residential"}).is_building()
        assert not OsmWay(1, (), {"building": "no"}).is_building()
        assert not OsmWay(1, (), {"highway": "primary"}).is_building()

    def test_building_ways_filter(self):
        doc = OsmDocument()
        doc.add_way(OsmWay(1, (1, 2, 3, 1), {"building": "yes"}))
        doc.add_way(OsmWay(2, (1, 2, 3), {"building": "yes"}))  # not closed
        doc.add_way(OsmWay(3, (1, 2, 3, 1), {}))  # not a building
        assert [w.id for w in doc.building_ways()] == [1]

    def test_bounds_empty_raises(self):
        with pytest.raises(ValueError):
            OsmDocument().bounds()

    def test_bounds(self):
        doc = OsmDocument()
        doc.add_node(OsmNode(1, 42.0, -71.5))
        doc.add_node(OsmNode(2, 42.5, -71.0))
        assert doc.bounds() == (42.0, -71.5, 42.5, -71.0)


class TestParser:
    def test_parse_sample(self):
        doc = parse_osm_xml(SAMPLE_XML)
        assert len(doc.nodes) == 4
        assert len(doc.ways) == 2
        assert doc.ways[0].tags == {"building": "yes"}
        assert doc.ways[0].node_refs == (1, 2, 3, 4, 1)

    def test_invalid_xml(self):
        with pytest.raises(OsmParseError):
            parse_osm_xml("<osm><node id='1'")

    def test_wrong_root(self):
        with pytest.raises(OsmParseError):
            parse_osm_xml("<notosm/>")

    def test_missing_node_attr(self):
        with pytest.raises(OsmParseError):
            parse_osm_xml('<osm><node id="1" lat="1"/></osm>')

    def test_bad_numeric_attr(self):
        with pytest.raises(OsmParseError):
            parse_osm_xml('<osm><node id="x" lat="1" lon="2"/></osm>')

    def test_unknown_elements_skipped(self):
        doc = parse_osm_xml('<osm><relation id="1"/><bounds minlat="0"/></osm>')
        assert not doc.nodes and not doc.ways


class TestFootprints:
    def test_extracts_only_buildings(self):
        doc = parse_osm_xml(SAMPLE_XML)
        fps = buildings_from_document(doc)
        assert len(fps) == 1
        assert fps[0].osm_id == 100

    def test_footprint_geometry_plausible(self):
        doc = parse_osm_xml(SAMPLE_XML)
        fp = buildings_from_document(doc, projection=BOSTON)[0]
        # The way spans 0.0005 deg lon x 0.0004 deg lat: roughly 41 x 44 m.
        assert 1000 < fp.polygon.area() < 3000

    def test_unresolvable_refs_skipped(self):
        doc = OsmDocument()
        doc.add_node(OsmNode(1, 42.0, -71.0))
        doc.add_way(OsmWay(5, (1, 99, 98, 1), {"building": "yes"}))
        assert buildings_from_document(doc) == []

    def test_empty_document(self):
        assert buildings_from_document(OsmDocument()) == []

    def test_tiny_sliver_skipped(self):
        doc = OsmDocument()
        doc.add_node(OsmNode(1, 42.0, -71.0))
        doc.add_node(OsmNode(2, 42.000001, -71.0))
        doc.add_node(OsmNode(3, 42.0, -71.000001))
        doc.add_way(OsmWay(5, (1, 2, 3, 1), {"building": "yes"}))
        assert buildings_from_document(doc) == []


class TestWriterRoundtrip:
    def test_roundtrip_preserves_geometry(self):
        square = Polygon.rectangle(0, 0, 40, 30)
        xml = polygons_to_osm_xml([square], BOSTON)
        doc = parse_osm_xml(xml)
        fps = buildings_from_document(doc, projection=BOSTON)
        assert len(fps) == 1
        assert fps[0].polygon.area() == pytest.approx(1200, rel=1e-3)
        assert fps[0].polygon.centroid().distance_to(square.centroid()) < 0.1

    def test_roundtrip_many(self):
        polys = [Polygon.rectangle(i * 50, 0, i * 50 + 30, 25) for i in range(10)]
        doc = parse_osm_xml(polygons_to_osm_xml(polys, BOSTON))
        fps = buildings_from_document(doc, projection=BOSTON)
        assert len(fps) == 10

    def test_write_and_parse_file(self, tmp_path):
        path = tmp_path / "test.osm"
        path.write_text(polygons_to_osm_xml([Polygon.rectangle(0, 0, 20, 20)], BOSTON))
        doc = parse_osm_xml(path.read_text())
        assert len(doc.building_ways()) == 1

    def test_custom_tags(self):
        xml = polygons_to_osm_xml(
            [Polygon.rectangle(0, 0, 10, 10)], BOSTON, tags={"building": "house"}
        )
        doc = parse_osm_xml(xml)
        assert doc.ways[0].tags["building"] == "house"
