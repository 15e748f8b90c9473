"""Parsing OSM XML extracts into :class:`~repro.osm.model.OsmDocument`.

Handles the standard ``<osm>`` document shape produced by the OSM API,
Overpass, and our own :mod:`repro.osm.writer`:

.. code-block:: xml

    <osm version="0.6">
      <node id="1" lat="42.36" lon="-71.09"/>
      <way id="10">
        <nd ref="1"/> ...
        <tag k="building" v="yes"/>
      </way>
    </osm>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .model import OsmDocument, OsmNode, OsmRelation, OsmRelationMember, OsmWay


class OsmParseError(ValueError):
    """Raised when an OSM document is malformed."""


def parse_osm_xml(text: str) -> OsmDocument:
    """Parse OSM XML text into a document.

    Unknown elements (relations, metadata) are skipped.  Ways that
    reference unknown nodes are kept — resolution happens later in
    :func:`buildings_from_document`, matching OSM's own lazy semantics.

    Raises:
        OsmParseError: on XML syntax errors or missing required
            attributes.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise OsmParseError(f"invalid OSM XML: {exc}") from exc
    if root.tag != "osm":
        raise OsmParseError(f"expected <osm> root element, got <{root.tag}>")

    doc = OsmDocument()
    for elem in root:
        if elem.tag == "node":
            doc.add_node(_parse_node(elem))
        elif elem.tag == "way":
            doc.add_way(_parse_way(elem))
        elif elem.tag == "relation":
            doc.add_relation(_parse_relation(elem))
    return doc


def _require_attr(elem: ET.Element, name: str) -> str:
    value = elem.get(name)
    if value is None:
        raise OsmParseError(f"<{elem.tag}> is missing required attribute {name!r}")
    return value


def _parse_node(elem: ET.Element) -> OsmNode:
    try:
        return OsmNode(
            id=int(_require_attr(elem, "id")),
            lat=float(_require_attr(elem, "lat")),
            lon=float(_require_attr(elem, "lon")),
        )
    except ValueError as exc:
        if isinstance(exc, OsmParseError):
            raise
        raise OsmParseError(f"malformed <node> attributes: {exc}") from exc


def _parse_way(elem: ET.Element) -> OsmWay:
    refs: list[int] = []
    tags: dict[str, str] = {}
    for child in elem:
        if child.tag == "nd":
            try:
                refs.append(int(_require_attr(child, "ref")))
            except ValueError as exc:
                if isinstance(exc, OsmParseError):
                    raise
                raise OsmParseError(f"malformed <nd> ref: {exc}") from exc
        elif child.tag == "tag":
            tags[_require_attr(child, "k")] = _require_attr(child, "v")
    try:
        way_id = int(_require_attr(elem, "id"))
    except ValueError as exc:
        if isinstance(exc, OsmParseError):
            raise
        raise OsmParseError(f"malformed <way> id: {exc}") from exc
    return OsmWay(id=way_id, node_refs=tuple(refs), tags=tags)


def _parse_relation(elem: ET.Element) -> OsmRelation:
    members: list[OsmRelationMember] = []
    tags: dict[str, str] = {}
    for child in elem:
        if child.tag == "member":
            try:
                ref = int(_require_attr(child, "ref"))
            except ValueError as exc:
                if isinstance(exc, OsmParseError):
                    raise
                raise OsmParseError(f"malformed <member> ref: {exc}") from exc
            members.append(
                OsmRelationMember(
                    type=child.get("type", ""),
                    ref=ref,
                    role=child.get("role", ""),
                )
            )
        elif child.tag == "tag":
            tags[_require_attr(child, "k")] = _require_attr(child, "v")
    try:
        relation_id = int(_require_attr(elem, "id"))
    except ValueError as exc:
        if isinstance(exc, OsmParseError):
            raise
        raise OsmParseError(f"malformed <relation> id: {exc}") from exc
    return OsmRelation(id=relation_id, members=tuple(members), tags=tags)
