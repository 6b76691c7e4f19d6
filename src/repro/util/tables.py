"""Plain-text table rendering for experiment output.

The experiment harness prints each reproduced paper table/figure as an
aligned ASCII table so results can be diffed against the paper's rows
without any plotting dependency.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

__all__ = ["render_table", "format_count"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Cells are stringified with ``str``; numeric-looking cells are
    right-aligned, everything else left-aligned.
    """
    str_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    numeric = [True] * len(headers)
    for row in str_rows:
        for index, cell in enumerate(row):
            if not _looks_numeric(cell):
                numeric[index] = False

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if numeric[index]:
                parts.append(cell.rjust(widths[index]))
            else:
                parts.append(cell.ljust(widths[index]))
        return "  ".join(parts).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _looks_numeric(cell: str) -> bool:
    if not cell:
        return True
    stripped = cell.replace(",", "").replace("%", "").replace("-", "", 1)
    try:
        float(stripped)
    except ValueError:
        return False
    return True


def format_count(value: int) -> str:
    """Render an integer with thousands separators, paper-table style."""
    return f"{value:,}"
