"""ASCII charts: terminal-friendly renderings of the paper's figures."""

from __future__ import annotations

import typing


def line_chart(series: typing.Mapping[str, typing.Mapping[float, float]],
               width: int = 60, height: int = 16, title: str = "") -> str:
    """Multi-series scatter/line chart on a character grid.

    ``series`` maps a series name to ``{x: y}``.  Each series is drawn
    with its own glyph (``*``, ``o``, ``+``, ``x``, ...); axes are
    annotated with min/max.  Intended for quick terminal inspection of
    figure shapes, not publication graphics.
    """
    if not series:
        raise ValueError("line chart of an empty series dict")
    glyphs = "*o+x@%&="
    points = [(x, y) for data in series.values() for x, y in data.items()]
    if not points:
        raise ValueError("line chart with no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, data) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for x, y in data.items():
            col = round((x - x_lo) / x_span * (width - 1))
            row = height - 1 - round((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph

    lines = [title] if title else []
    lines.append(f"y_max = {y_hi:g}")
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append("  +" + "-" * width)
    lines.append(f"  y_min = {y_lo:g};  x: {x_lo:g} .. {x_hi:g}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(series))
    lines.append(f"  legend: {legend}")
    return "\n".join(lines)
