"""The §2 war-driving measurement study and its analysis pipeline."""

from .analysis import (
    ap_sighting_locations,
    common_ap_bins,
    common_ap_pairs,
    location_spread,
    macs_per_scan_cdf,
    spread_cdf,
    table1_row,
)
from .scanner import Scan, ScanDataset, run_survey
from .study import AREA_NAMES, AreaSpec, run_study, survey_area
from .trajectory import (
    Trajectory,
    buildings_along,
    grid_walk,
    line_walk,
    random_walk,
)

__all__ = [
    "AreaSpec",
    "Scan",
    "ScanDataset",
    "Trajectory",
    "ap_sighting_locations",
    "buildings_along",
    "common_ap_bins",
    "common_ap_pairs",
    "grid_walk",
    "line_walk",
    "location_spread",
    "macs_per_scan_cdf",
    "random_walk",
    "AREA_NAMES",
    "run_study",
    "survey_area",
    "run_survey",
    "spread_cdf",
    "table1_row",
]
