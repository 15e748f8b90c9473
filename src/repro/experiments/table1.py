"""Table 1: summary of the (simulated) war-driving measurements."""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import format_table
from ..measurement import ScanDataset, run_study, table1_row

PAPER_TABLE1 = {
    "downtown": (2691, 26532),
    "campus": (726, 2399),
    "residential": (461, 10333),
    "river": (550, 4794),
}


@dataclass(frozen=True)
class Table1Row:
    """One dataset's summary, paired with the paper's numbers."""

    area: str
    measurements: int
    unique_aps: int
    paper_measurements: int
    paper_unique_aps: int


def run_table1(
    seed: int = 0,
    datasets: list[ScanDataset] | None = None,
) -> list[Table1Row]:
    """Regenerate Table 1 (running the full study unless given data)."""
    if datasets is None:
        datasets = run_study(seed=seed)
    rows = []
    total_meas = 0
    total_aps = 0
    for ds in datasets:
        area, measurements, unique = table1_row(ds)
        paper = PAPER_TABLE1.get(area, (0, 0))
        rows.append(
            Table1Row(
                area=area,
                measurements=measurements,
                unique_aps=unique,
                paper_measurements=paper[0],
                paper_unique_aps=paper[1],
            )
        )
        total_meas += measurements
        total_aps += unique
    rows.append(
        Table1Row(
            area="all",
            measurements=total_meas,
            unique_aps=total_aps,
            paper_measurements=4428,
            paper_unique_aps=40158,
        )
    )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    """Paper-style rendering with paper-vs-measured columns."""
    return format_table(
        ["Dataset", "# Measurements", "# Unique APs", "paper #Meas", "paper #APs"],
        [
            [r.area, r.measurements, r.unique_aps, r.paper_measurements, r.paper_unique_aps]
            for r in rows
        ],
        title="Table 1: Summary of collected data for measurements",
    )
