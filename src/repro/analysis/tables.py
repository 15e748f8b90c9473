"""Plain-text table formatting for experiment output.

Every experiment driver returns structured rows *and* can print a
paper-style table; this module does the printing so the drivers stay
data-only.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    Floats are shown with 3 significant decimals, None as ``-``;
    everything else via ``str``.
    """
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV text (no quoting needed for our numeric data)."""
    out = [",".join(headers)]
    for row in rows:
        out.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if cell is None:  # undefined (nothing measured), never zero
        return "-"
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
