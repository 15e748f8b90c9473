"""Figure 5: a downtown section's footprints and its populated AP mesh."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..city import grid_downtown
from ..mesh import APGraph, place_aps
from ..viz import render_city, render_mesh
from .common import PAPER_AP_DENSITY, PAPER_TRANSMISSION_RANGE


@dataclass
class Fig5Result:
    """The rendered figure plus the quantities it depicts."""

    footprints_art: str
    mesh_art: str
    building_count: int
    ap_count: int
    link_count: int
    largest_component_fraction: float


def run_fig5(
    seed: int = 0,
    blocks: int = 6,
    transmission_range: float = PAPER_TRANSMISSION_RANGE,
    ap_density: float = PAPER_AP_DENSITY,
    width_chars: int = 100,
) -> Fig5Result:
    """Regenerate Figure 5 on a downtown section.

    (a) building footprints; (b) APs placed at 1 AP / 200 m² and
    interconnected where closer than 50 m, exactly the paper's caption.
    """
    city = grid_downtown(seed=seed, blocks_x=blocks, blocks_y=blocks, name="downtown-section")
    aps = place_aps(city, density=ap_density, rng=random.Random(seed))
    graph = APGraph(aps, transmission_range=transmission_range)
    largest = int(graph.component_ids()[1].max()) / len(aps) if aps else 0.0
    return Fig5Result(
        footprints_art=render_city(city, width_chars=width_chars),
        mesh_art=render_mesh(city, graph, width_chars=width_chars),
        building_count=len(city),
        ap_count=len(aps),
        link_count=graph.edge_count(),
        largest_component_fraction=largest,
    )


def format_fig5(result: Fig5Result) -> str:
    """Both panels plus the headline statistics."""
    stats = (
        f"Figure 5: {result.building_count} buildings, {result.ap_count} APs, "
        f"{result.link_count} links; largest component holds "
        f"{result.largest_component_fraction:.0%} of APs"
    )
    return "\n\n".join([stats, "(a) footprints:", result.footprints_art, "(b) AP mesh:", result.mesh_art])
