"""Plain-text rendering of the reproduced tables and figures."""

from __future__ import annotations

from ..codecs import codec_spec

__all__ = ["display_name", "render_table", "render_scatter"]


def display_name(codec_id: str) -> str:
    """The name a registry codec goes by in the paper's tables."""
    return codec_spec(codec_id).table_name


def render_table(
    headers: list[str],
    rows: list[list[str]],
    title: str = "",
    highlight: dict[tuple[int, int], str] | None = None,
) -> str:
    """Fixed-width ASCII table.  ``highlight`` maps (row, col) to a marker."""
    highlight = highlight or {}
    cells = [list(map(str, row)) for row in rows]
    for (r, c), marker in highlight.items():
        if 0 <= r < len(cells) and 0 <= c < len(cells[r]):
            cells[r][c] = f"{cells[r][c]}{marker}"
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_scatter(
    points: dict[str, tuple[float, float]],
    xlabel: str,
    ylabel: str,
    title: str = "",
    width: int = 68,
    height: int = 20,
    log_y: bool = False,
) -> str:
    """A labelled ASCII scatter plot (one marker per named series point).

    Used for the figure reproductions: each compressor contributes one
    (x, y) trade-off point, mirroring the paper's Figures 2 and 3.
    """
    import math

    if not points:
        return "(no points)"
    xs = [p[0] for p in points.values()]
    ys = [p[1] for p in points.values()]
    if log_y:
        ys = [math.log10(max(y, 1e-12)) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0

    grid = [[" "] * width for _ in range(height)]
    labels = []
    for idx, (name, (px, py)) in enumerate(sorted(points.items())):
        if log_y:
            py = math.log10(max(py, 1e-12))
        col = int((px - x0) / x_span * (width - 1))
        row = height - 1 - int((py - y0) / y_span * (height - 1))
        marker = chr(ord("A") + idx % 26)
        grid[row][col] = marker
        labels.append(f"  {marker} = {name}")
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ylabel} (top={'10^%.2f' % y1 if log_y else f'{y1:.1f}'})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {xlabel}: {x0:.1f} .. {x1:.1f}")
    lines.extend(labels)
    return "\n".join(lines)
