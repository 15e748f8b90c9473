"""OSM substrate: parse, project, and emit building-footprint data."""

from .footprints import RELATION_ID_OFFSET, Footprint, buildings_from_document
from .model import OsmDocument, OsmNode, OsmRelation, OsmRelationMember, OsmWay
from .parser import OsmParseError, parse_osm_xml
from .projection import EARTH_RADIUS_M, LocalProjection
from .writer import polygons_to_osm_xml

__all__ = [
    "EARTH_RADIUS_M",
    "Footprint",
    "RELATION_ID_OFFSET",
    "LocalProjection",
    "OsmDocument",
    "OsmNode",
    "OsmParseError",
    "OsmRelation",
    "OsmRelationMember",
    "OsmWay",
    "buildings_from_document",
    "parse_osm_xml",
    "polygons_to_osm_xml",
]
