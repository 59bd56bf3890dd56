"""Plain-text table/series rendering for the benchmark harness.

The benches print rows shaped like the paper's tables and figures;
these helpers keep the formatting uniform and dependency-free.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    note: str = "",
) -> str:
    """Monospace table with a title rule, like the paper's tables."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)
        ))
    if note:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_series(
    title: str,
    xs: Sequence[Any],
    ys: Sequence[Any],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """A figure rendered as an (x, y) series listing."""
    rows = list(zip(xs, ys))
    return render_table(title, [x_label, y_label], rows)


def render_bars(title: str, counts: Dict[str, int], width: int = 40) -> str:
    """A bar chart rendered with '#' glyphs (for the Fig. 7 bench)."""
    if not counts:
        return title
    peak = max(counts.values()) or 1
    lines = [title, "=" * len(title)]
    label_width = max(len(k) for k in counts)
    for label, value in counts.items():
        bar = "#" * max(1, int(round(width * value / peak))) if value else ""
        lines.append(f"{label.ljust(label_width)}  {str(value).rjust(4)}  {bar}")
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
