"""Named city presets for the Figure 6 multi-city evaluation.

The paper surveys several real cities (Boston, Washington D.C., …);
we substitute eight synthetic cities spanning the same morphology
space.  Names are fictional; the mapping to the paper's archetypes is
given in each entry's docstring line.
"""

from __future__ import annotations

from typing import Callable

from .generators import (
    campus,
    fractured_city,
    grid_downtown,
    metro_grid,
    old_town,
    park_city,
    residential,
    river_city,
)
from .model import City

CityFactory = Callable[[int], City]

CITY_PRESETS: dict[str, CityFactory] = {
    # Dense downtown grid — the paper's best case (Boston downtown).
    "gridport": lambda seed: grid_downtown(seed=seed, name="gridport"),
    # University campus with quads (MIT campus area).
    "collegium": lambda seed: campus(seed=seed, name="collegium"),
    # Low-density residential area.
    "suburbia": lambda seed: residential(seed=seed, name="suburbia"),
    # River-split city with two bridges — connectable across the water.
    "pontsville": lambda seed: river_city(seed=seed, bridges=2, name="pontsville"),
    # River-split city with no bridges — fractures into two islands.
    "riverton": lambda seed: river_city(seed=seed, bridges=0, name="riverton"),
    # Large central park the routes must skirt.
    "parkside": lambda seed: park_city(seed=seed, name="parkside"),
    # River + highways fracture the city into islands (Washington D.C.).
    "capitolia": lambda seed: fractured_city(seed=seed, name="capitolia"),
    # Irregular medieval core with no street grid.
    "oldtown": lambda seed: old_town(seed=seed, name="oldtown"),
}

#: Metro-scale presets for the hierarchical routing regime.  Kept out
#: of :data:`CITY_PRESETS` on purpose: the fig6 / replication sweeps
#: enumerate that dict, and a 20k–100k-building world has no place in
#: a per-city delivery experiment.  ``repro metro`` resolves these
#: through :func:`make_city` like any other name.
METRO_PRESETS: dict[str, CityFactory] = {
    # ~20k buildings: a quick look.
    "metro-20k": lambda seed: metro_grid(seed=seed, cols=142, rows=142, name="metro-20k"),
    # ~100k buildings: a full metropolitan map.
    "metro-100k": lambda seed: metro_grid(seed=seed, cols=317, rows=317, name="metro-100k"),
}


def make_city(name: str, seed: int = 0) -> City:
    """Instantiate a preset city by name.

    Raises:
        KeyError: for an unknown preset name.
    """
    factory = CITY_PRESETS.get(name) or METRO_PRESETS.get(name)
    if factory is None:
        known = ", ".join(sorted(CITY_PRESETS) + sorted(METRO_PRESETS))
        raise KeyError(f"unknown city preset {name!r}; known presets: {known}") from None
    return factory(seed)


def preset_names() -> list[str]:
    """All preset names in evaluation order."""
    return list(CITY_PRESETS)
