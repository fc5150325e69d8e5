"""Plain-text rendering of experiment tables and figure series.

The experiment drivers return plain data (lists of dictionaries for tables,
``x -> series`` mappings for figures); this module renders them the way the
benchmark harness prints them: fixed-width text tables and simple aligned
series listings, so the output of ``pytest benchmarks/`` can be compared
side-by-side with the paper's tables and figure data points.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_value(value: object) -> str:
    """Render one cell: floats get 3 decimals, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    widths = {column: len(str(column)) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        cells = [format_value(row.get(column, "")) for column in columns]
        rendered_rows.append(cells)
        for column, cell in zip(columns, cells):
            widths[column] = max(widths[column], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for cells in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[column]) for column, cell in zip(columns, cells))
        )
    return "\n".join(lines)


def render_series(
    series: Mapping[str, Mapping[object, object]],
    x_label: str = "x",
    title: Optional[str] = None,
) -> str:
    """Render figure-style data: one column of x values, one column per series."""
    x_values: List[object] = []
    for values in series.values():
        for x in values:
            if x not in x_values:
                x_values.append(x)
    rows = []
    for x in x_values:
        row: Dict[str, object] = {x_label: x}
        for name, values in series.items():
            if x in values:
                row[name] = values[x]
        rows.append(row)
    return render_table(rows, columns=[x_label, *series.keys()], title=title)


def render_ratio_row(label: str, numerator: float, denominator: float) -> str:
    """Render a one-line speedup/ratio statement (used in bench summaries)."""
    if denominator <= 0:
        return f"{label}: n/a"
    return f"{label}: {numerator / denominator:.2f}x"


def print_report(text: str) -> None:
    """Print a rendered report surrounded by blank lines (bench-friendly)."""
    print()
    print(text)
    print()
