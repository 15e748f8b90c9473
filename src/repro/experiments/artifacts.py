"""The artifact table: every experiment verb, defined once.

Each :class:`Artifact` row is one ``python -m repro <verb>``: its help
text, its own flags and ``text(args)``, what the verb prints.  The
seven paper rows (Table 1, Figs 1/2/5/6/7 and the §4 header sizes) also
carry ``files(args)``, the CSV/text files ``export`` writes, and their
``quick`` sizes.  ``all`` prints the paper rows in table order and
``export`` writes their files; both share one measurement study.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..analysis import format_csv
from ..city import CITY_PRESETS, METRO_PRESETS
from ..measurement import ScanDataset, run_study
from .ablations import (
    compare_membership,
    format_sweep,
    sweep_ap_density,
    sweep_conduit_width,
    sweep_weight_exponent,
)
from .baselines_exp import format_baselines, run_baseline_comparison
from .bridging import format_bridging, run_bridging
from .calibration import format_calibration, run_calibration
from .capacity import format_capacity, run_capacity_sweep
from .fig1 import fig1_series, format_fig1, run_fig1
from .fig2 import format_fig2, run_fig2
from .fig5 import format_fig5, run_fig5
from .fig6 import Fig6Row, format_fig6, run_fig6
from .fig7 import run_fig7
from .header_stats import format_header_stats, run_header_stats
from .replication import format_replication, replicate_fig6
from .scaling import format_scaling, run_scaling
from .security_exp import format_compromise, run_compromise_sweep
from .table1 import format_table1, run_table1

#: Every preset ``make_city`` builds, for ``--city`` choices.
CITY_CHOICES = [*CITY_PRESETS, *METRO_PRESETS]


def bounded(kind: type, low: float, high: float | None = None, *, low_open: bool = False):
    """An argparse ``type`` accepting ``kind`` values from ``low``
    (excluded with ``low_open``) up to ``high`` (included; ``None`` =
    no cap).  NaN is refused."""
    if high is None:
        rule = f"> {low}" if low_open else f">= {low}"
    else:
        rule = f"in {'(' if low_open else '['}{low}, {high}]"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        above = value > low if low_open else value >= low
        if not (above and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


#: One flag: ``add_argument``'s names and keyword arguments.
Flag = tuple[tuple[str, ...], dict[str, Any]]


def _flag(*names: str, **kwargs: Any) -> Flag:
    return names, kwargs


def _cities(default: list[str] | None, help: str) -> Flag:
    return _flag(
        "--cities", nargs="+", default=default, choices=CITY_CHOICES, metavar="CITY", help=help
    )


def _count(name: str, default: int, help: str, low: int = 1) -> Flag:
    return _flag(name, type=bounded(int, low), default=default, help=help)


_CITY = _flag(
    "--city", default="gridport", choices=CITY_CHOICES, metavar="CITY", help="preset city"
)
_PLOT = _flag("--plot", action="store_true", help="ASCII charts")


@dataclass(frozen=True)
class Artifact:
    """One experiment verb."""

    name: str
    help: str
    text: Callable[[argparse.Namespace], str]
    flags: tuple[Flag, ...] = ()
    #: Paper rows only: ``(file name, content)`` pairs for ``export``.
    files: Callable[[argparse.Namespace], list[tuple[str, str]]] | None = None
    #: Paper rows only: the arguments ``--quick`` overrides.
    quick: dict[str, Any] = field(default_factory=dict)

    def add_flags(self, parser: argparse.ArgumentParser) -> None:
        for names, kwargs in self.flags:
            parser.add_argument(*names, **kwargs)

    def args(self, seed: int, quick: bool, **shared: Any) -> argparse.Namespace:
        """This row's arguments as ``all`` and ``export`` run it: its
        flag defaults, then its quick sizes under ``quick``."""
        parser = argparse.ArgumentParser(add_help=False)
        self.add_flags(parser)
        args = parser.parse_args([], argparse.Namespace(seed=seed, **shared))
        if quick:
            vars(args).update(self.quick)
        return args


def _study(args: argparse.Namespace) -> list[ScanDataset]:
    """The four-area survey: ``all`` and ``export`` hand every row the
    one they share, a single verb runs its own."""
    return getattr(args, "datasets", None) or run_study(seed=args.seed)


def _csv(name: str, header: list[str], rows: list[list[Any]]) -> tuple[str, str]:
    return name, format_csv(header, rows)


def _table1_files(args: argparse.Namespace) -> list[tuple[str, str]]:
    rows = run_table1(seed=args.seed, datasets=_study(args))
    return [_csv(
        "table1.csv",
        ["area", "measurements", "unique_aps", "paper_measurements", "paper_unique_aps"],
        [[r.area, r.measurements, r.unique_aps, r.paper_measurements, r.paper_unique_aps]
         for r in rows],
    )]


def _fig1_text(args: argparse.Namespace) -> str:
    areas = run_fig1(seed=args.seed, datasets=_study(args))
    parts = [format_fig1(areas)]
    if args.plot:
        from ..viz import cdf_chart

        series = fig1_series(areas, points=60)
        parts += [
            "\nFigure 1a: MACs per measurement",
            cdf_chart({a: s["macs_per_scan"] for a, s in series.items()}, x_label="MACs per scan"),
            "\nFigure 1b: per-MAC location spread",
            cdf_chart({a: s["spread_m"] for a, s in series.items()}, x_label="spread (m)"),
        ]
    return "\n".join(parts)


def _fig1_files(args: argparse.Namespace) -> list[tuple[str, str]]:
    areas = run_fig1(seed=args.seed, datasets=_study(args))
    files = []
    for area, series in fig1_series(areas, points=120).items():
        files.append(_csv(
            f"fig1a_{area}_macs_cdf.csv", ["macs_per_scan", "cdf"], series["macs_per_scan"]
        ))
        files.append(_csv(f"fig1b_{area}_spread_cdf.csv", ["spread_m", "cdf"], series["spread_m"]))
    return files


def _fig2_files(args: argparse.Namespace) -> list[tuple[str, str]]:
    # The same sample as the printed table: run_fig2's every second scan.
    areas = run_fig2(seed=args.seed, datasets=_study(args))
    return [
        _csv(
            f"fig2_{area.area}.csv",
            ["bin_lo_m", "bin_hi_m", "pairs", "p10", "p25", "p50", "p75", "p100"],
            [[b.lo, b.hi, b.count, b.p10, b.p25, b.p50, b.p75, b.p100] for b in area.bins],
        )
        for area in areas
    ]


def _fig5_files(args: argparse.Namespace) -> list[tuple[str, str]]:
    fig5 = run_fig5(seed=args.seed, blocks=args.blocks)
    return [
        ("fig5a_footprints.txt", fig5.footprints_art),
        ("fig5b_mesh.txt", fig5.mesh_art),
        _csv(
            "fig5_stats.csv",
            ["buildings", "aps", "links", "largest_component_fraction"],
            [[fig5.building_count, fig5.ap_count, fig5.link_count,
              fig5.largest_component_fraction]],
        ),
    ]


def _fig6(args: argparse.Namespace) -> list[Fig6Row]:
    return run_fig6(args.seed, args.cities, args.reach_pairs, args.delivery_pairs)


def _fig6_text(args: argparse.Namespace) -> str:
    rows = _fig6(args)
    parts = [format_fig6(rows)]
    if args.plot:
        from ..viz import ascii_bar_chart

        def chart(values: list[float | None]) -> str:
            # Undefined bars are skipped, not drawn as zero.
            kept = [(r.city, v) for r, v in zip(rows, values) if v is not None]
            return ascii_bar_chart(*zip(*kept), max_value=1.0) if kept else "-"

        parts += [
            "\nreachability:",
            chart([r.reachability for r in rows]),
            "\ndeliverability given reachability:",
            chart([r.deliverability for r in rows]),
        ]
    return "\n".join(parts)


def _fig6_files(args: argparse.Namespace) -> list[tuple[str, str]]:
    return [_csv(
        "fig6.csv",
        ["city", "reachability", "deliverability_given_reach", "median_overhead", "p90_overhead"],
        [
            [r.city, r.reachability, r.deliverability,
             "" if r.median_overhead is None else r.median_overhead,
             "" if r.p90_overhead is None else r.p90_overhead]
            for r in _fig6(args)
        ],
    )]


def _header_files(args: argparse.Namespace) -> list[tuple[str, str]]:
    stats = run_header_stats(seed=args.seed, pairs=args.pairs)
    return [_csv("header_stats.csv", ["metric", "measured", "paper"], [
        ["median_route_bits", stats.median_bits, 175],
        ["p90_route_bits", stats.p90_bits, 225],
        ["median_waypoints", stats.median_waypoints, ""],
        ["median_route_buildings", stats.median_route_buildings, ""],
    ])]


def _sweep(sweep: Callable[..., Any], parameter: str, title: str):
    return lambda args: format_sweep(sweep(seed=args.seed), parameter, title)


def _membership_text(args: argparse.Namespace) -> str:
    c = compare_membership(seed=args.seed)
    return (
        f"building membership: {c.building_delivered}/{c.attempted} delivered, "
        f"median tx {c.building_median_tx}\n"
        f"AP-position membership: {c.position_delivered}/{c.attempted} delivered, "
        f"median tx {c.position_median_tx}"
    )


ARTIFACTS: tuple[Artifact, ...] = (
    Artifact(
        "table1", "war-driving summary table",
        lambda a: format_table1(run_table1(seed=a.seed, datasets=_study(a))),
        files=_table1_files,
    ),
    Artifact(
        "fig1", "CDFs of MACs per scan and per-MAC spread", _fig1_text,
        flags=(_PLOT,), files=_fig1_files,
    ),
    Artifact(
        "fig2", "common APs vs measurement-pair distance",
        lambda a: format_fig2(run_fig2(seed=a.seed, datasets=_study(a))),
        files=_fig2_files,
    ),
    Artifact(
        "fig5", "downtown footprints and AP mesh rendering",
        lambda a: format_fig5(run_fig5(seed=a.seed, blocks=a.blocks)),
        flags=(_count("--blocks", 6, "downtown blocks per side"),), files=_fig5_files,
    ),
    Artifact(
        "fig6", "reachability / deliverability / overhead per city", _fig6_text,
        flags=(
            _count("--reach-pairs", 1000, "building pairs tested for reachability"),
            _count("--delivery-pairs", 50, "reachable pairs simulated end to end", low=0),
            _cities(None, "preset cities (default: every preset)"),
            _PLOT,
        ),
        files=_fig6_files, quick={"reach_pairs": 150, "delivery_pairs": 15},
    ),
    Artifact(
        "fig7", "render one simulated delivery",
        lambda a: run_fig7(seed=a.seed, city_name=a.city).art,
        flags=(_CITY,),
        files=lambda a: [("fig7_simulation.txt", run_fig7(seed=a.seed, city_name=a.city).art)],
    ),
    Artifact(
        "header", "compressed-route header sizes",
        lambda a: format_header_stats(run_header_stats(seed=a.seed, pairs=a.pairs)),
        flags=(_count("--pairs", 150, "routes planned"),),
        files=_header_files, quick={"pairs": 40},
    ),
    Artifact(
        "ablation-width", "conduit width sweep",
        _sweep(sweep_conduit_width, "width (m)", "Conduit width sweep"),
    ),
    Artifact(
        "ablation-weights", "edge-weight exponent sweep",
        _sweep(sweep_weight_exponent, "exponent", "Edge-weight exponent sweep"),
    ),
    Artifact(
        "ablation-density", "AP density sweep",
        _sweep(sweep_ap_density, "m^2 per AP", "AP density sweep"),
    ),
    Artifact("ablation-membership", "building vs AP-position membership", _membership_text),
    Artifact(
        "baselines", "CityMesh vs flood/gossip/greedy/GPSR/AODV",
        lambda a: format_baselines(run_baseline_comparison(a.city, seed=a.seed, pairs=a.pairs)),
        flags=(_CITY, _count("--pairs", 30, "building pairs per scheme")),
    ),
    Artifact(
        "security", "deliverability under compromised APs",
        lambda a: format_compromise(run_compromise_sweep(a.city, seed=a.seed)),
        flags=(_CITY,),
    ),
    Artifact(
        "bridging", "island bridging before/after",
        lambda a: format_bridging([run_bridging(c, seed=a.seed) for c in a.cities]),
        flags=(_cities(["riverton", "capitolia"], "preset cities"),),
    ),
    Artifact(
        "calibration", "building-graph predictor precision/recall",
        lambda a: format_calibration(run_calibration(a.city, seed=a.seed)),
        flags=(_CITY,),
    ),
    Artifact(
        "capacity", "delivery rate vs offered load",
        lambda a: format_capacity(run_capacity_sweep(a.city, seed=a.seed)),
        flags=(_CITY,),
    ),
    Artifact(
        "replicate", "fig6 across seeds with error bars",
        lambda a: format_replication([
            replicate_fig6(c, seeds=tuple(range(a.seed, a.seed + a.num_seeds))) for c in a.cities
        ]),
        flags=(
            _cities(["gridport", "riverton"], "preset cities"),
            _count("--num-seeds", 5, "seeds from --seed upwards"),
        ),
    ),
    Artifact(
        "scaling", "per-node control traffic vs network size (section 5)",
        lambda a: format_scaling(run_scaling()),
    ),
)


def paper_args(seed: int, quick: bool) -> list[tuple[Artifact, argparse.Namespace]]:
    """The paper rows in table order with their arguments; Table 1 and
    Figs 1–2 share one measurement study."""
    datasets = run_study(seed=seed)
    return [(row, row.args(seed, quick, datasets=datasets)) for row in ARTIFACTS if row.files]


def export_all(out_dir: str | Path, seed: int = 0, quick: bool = True) -> list[Path]:
    """Regenerate every paper artifact and write its files under
    ``out_dir`` (created if missing); returns them in creation order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for row, args in paper_args(seed, quick):
        for name, content in row.files(args):
            written.append(out / name)
            written[-1].write_text(content + "\n", encoding="utf-8")
    return written
