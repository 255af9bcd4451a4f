"""Plain-text rendering of experiment results.

Formats the figure data produced by :mod:`repro.analysis.figures` into the
ASCII tables and series that ``python -m repro.analysis.experiments --all``
prints.  No plotting libraries
are used: the evaluation quantities of the paper are all one-dimensional
series or small grids, which render fine as text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_table", "format_series", "format_grid_summary", "scientific"]


def scientific(value: float, digits: int = 3) -> str:
    """Return a compact scientific-notation string for a value."""
    if value == 0:
        return "0"
    return f"{value:.{digits}e}"


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render a list of rows as an aligned ASCII table."""
    if not rows:
        return " | ".join(headers)
    cells = [[str(h) for h in headers]] + [[_render(value) for value in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append(" | ".join(value.rjust(width) for value, width in zip(row, widths)))
        if index == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-2:
            return scientific(value)
        return f"{value:.2f}"
    return str(value)


def format_series(name: str, x: np.ndarray, y: np.ndarray, x_label: str, y_label: str) -> str:
    """Render one (x, y) series as a small two-column table."""
    rows = [[float(a), float(b)] for a, b in zip(np.asarray(x), np.asarray(y))]
    table = format_table([x_label, y_label], rows)
    return f"{name}\n{table}"


def format_grid_summary(name: str, values: np.ndarray) -> str:
    """Summarise a 2-D grid (min / max / mean and the location of the maximum)."""
    values = np.asarray(values)
    row, col = np.unravel_index(int(np.argmax(values)), values.shape)
    return (
        f"{name}: shape={values.shape} min={scientific(float(values.min()))} "
        f"mean={scientific(float(values.mean()))} max={scientific(float(values.max()))} "
        f"argmax=(row {row}, col {col})"
    )
