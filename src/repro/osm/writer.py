"""Serialising city models back to OSM XML.

Used to round-trip synthetic cities through the OSM substrate (so the
parser is exercised on realistic documents) and to export generated
cities for inspection in external OSM tooling.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable

from ..geometry import Polygon
from .projection import LocalProjection


def polygons_to_osm_xml(
    polygons: Iterable[Polygon],
    projection: LocalProjection,
    tags: dict[str, str] | None = None,
) -> str:
    """Serialise polygons as building-tagged closed OSM ways.

    Node and way ids are assigned sequentially from 1.  ``tags``
    (default ``{"building": "yes"}``) are applied to every way.
    """
    way_tags = tags if tags is not None else {"building": "yes"}
    root = ET.Element("osm", version="0.6", generator="repro-citymesh")
    next_node_id = 1
    next_way_id = 1
    way_elems: list[ET.Element] = []

    for polygon in polygons:
        refs: list[int] = []
        for vertex in polygon.vertices:
            lat, lon = projection.unproject(vertex)
            ET.SubElement(
                root,
                "node",
                id=str(next_node_id),
                lat=f"{lat:.9f}",
                lon=f"{lon:.9f}",
            )
            refs.append(next_node_id)
            next_node_id += 1
        way = ET.Element("way", id=str(next_way_id))
        next_way_id += 1
        for ref in refs + [refs[0]]:  # close the ring
            ET.SubElement(way, "nd", ref=str(ref))
        for k, v in way_tags.items():
            ET.SubElement(way, "tag", k=k, v=v)
        way_elems.append(way)

    # Ways after all nodes, matching conventional OSM document order.
    for way in way_elems:
        root.append(way)
    return ET.tostring(root, encoding="unicode")
