"""AP placement, the unit-disk AP mesh, and island/bridge analysis."""

from .critical import articulation_points, bridge_links
from .graph import DEFAULT_TRANSMISSION_RANGE, APGraph
from .islands import (
    BridgePlan,
    Island,
    apply_bridges,
    bridge_all_islands,
    closest_gap,
    find_islands,
    plan_bridge,
)
from .power import (
    LongevityPoint,
    PowerProfile,
    PowerSource,
    assign_power_profiles,
    longevity_curve,
    surviving_mesh,
)
from .placement import (
    DEFAULT_AP_DENSITY,
    DEFAULT_DELIBERATE_SPACING,
    AccessPoint,
    place_aps,
)

__all__ = [
    "APGraph",
    "AccessPoint",
    "BridgePlan",
    "DEFAULT_AP_DENSITY",
    "DEFAULT_DELIBERATE_SPACING",
    "DEFAULT_TRANSMISSION_RANGE",
    "Island",
    "LongevityPoint",
    "PowerProfile",
    "PowerSource",
    "apply_bridges",
    "assign_power_profiles",
    "articulation_points",
    "bridge_links",
    "bridge_all_islands",
    "closest_gap",
    "find_islands",
    "longevity_curve",
    "place_aps",
    "plan_bridge",
    "surviving_mesh",
]
