"""Planar geometry substrate for CityMesh.

Everything downstream (city models, AP meshes, conduit routing, the
event simulator) builds on these primitives.  Coordinates are metres in
a local planar frame.
"""

from .columnar import PolygonColumns, contains_mask, path_overlap_mask
from .conduit import ConduitPath, ConduitRect, covers_all
from .holes import PolygonWithHoles
from .index import GridIndex
from .point import Point, centroid_of
from .polygon import Polygon
from .segment import Segment

__all__ = [
    "ConduitPath",
    "ConduitRect",
    "GridIndex",
    "Point",
    "Polygon",
    "PolygonColumns",
    "PolygonWithHoles",
    "Segment",
    "centroid_of",
    "contains_mask",
    "covers_all",
    "path_overlap_mask",
]
