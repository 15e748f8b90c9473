"""CityMesh core: the paper's building-routing contribution.

Route planning over the building graph, Figure-4 route compression,
the bit-exact packet header codec, and the AP-side stateless
rebroadcast decision.
"""

from .bits import BitReader, BitWriter, bits_needed
from .compression import (
    DEFAULT_CONDUIT_WIDTH,
    CompressedRoute,
    compress_route,
    conduits_for_waypoints,
)
from .packet import (
    HEADER_VERSION,
    MAX_WAYPOINTS,
    HeaderError,
    Packet,
    PacketHeader,
    decode_header,
    encode_header,
)
from .router import BuildingRouter, ConduitMembership, RoutePlan
from .thinning import ThinnedConduitPolicy, thinning_hash

__all__ = [
    "BitReader",
    "BitWriter",
    "BuildingRouter",
    "CompressedRoute",
    "ConduitMembership",
    "DEFAULT_CONDUIT_WIDTH",
    "HEADER_VERSION",
    "HeaderError",
    "MAX_WAYPOINTS",
    "Packet",
    "PacketHeader",
    "RoutePlan",
    "ThinnedConduitPolicy",
    "bits_needed",
    "compress_route",
    "conduits_for_waypoints",
    "decode_header",
    "encode_header",
    "thinning_hash",
]
