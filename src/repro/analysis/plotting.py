"""Terminal-friendly plotting: ASCII line/bar charts and heatmaps.

The offline environment has no matplotlib, so the experiment harnesses
render their figures as text.  These renderers are deliberately small
but real: log-scale support for Figure 7, series overlays for the
latency timelines, and an intensity heatmap for Figure 5.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


_SHADES = " .:-=+*#%@"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart, one row per (label, value)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return title
    peak = max(abs(v) for v in values) or 1.0
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(abs(value) / peak * width))
        lines.append(f"{str(label):>{label_width}} | {bar} {value:g}{unit}")
    return "\n".join(lines)


def line_plot(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 72,
    height: int = 16,
    title: str = "",
    logy: bool = False,
) -> str:
    """Overlayed scatter/line plot of (x, y) series, one glyph each."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return title
    xs = [p[0] for p in points]
    ys = [_logy(p[1]) if logy else p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    glyphs = "ox+*@%&$"
    for glyph, (name, pts) in zip(glyphs, series.items()):
        for x, y in pts:
            yv = _logy(y) if logy else y
            col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
            row = min(height - 1, int((yv - y_lo) / y_span * (height - 1)))
            grid[height - 1 - row][col] = glyph
    lines = [title] if title else []
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" x: [{x_lo:g} .. {x_hi:g}]   y: [{min(p[1] for p in points):g} "
                 f".. {max(p[1] for p in points):g}]" + ("  (log y)" if logy else ""))
    legend = "   ".join(
        f"{glyph}={name}" for glyph, name in zip(glyphs, series.keys())
    )
    lines.append(" " + legend)
    return "\n".join(lines)


def _logy(value: float) -> float:
    return math.log10(max(value, 1e-12))


def heatmap(
    matrix: Sequence[Sequence[float]],
    row_labels: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Intensity heatmap; rows are y (printed top-down), columns x."""
    values = [v for row in matrix for v in row]
    if not values:
        return title
    peak = max(values) or 1.0
    lines = [title] if title else []
    label_width = max((len(str(l)) for l in row_labels or [""]), default=0)
    for index, row in enumerate(matrix):
        label = str(row_labels[index]) if row_labels else str(index)
        cells = "".join(
            _SHADES[min(len(_SHADES) - 1, int(v / peak * (len(_SHADES) - 1)))]
            for v in row
        )
        lines.append(f"{label:>{label_width}} |{cells}|")
    return "\n".join(lines)


def latency_strip(
    times: Sequence[float],
    latencies: Sequence[float],
    buckets: int = 72,
    title: str = "",
) -> str:
    """One-line summary of a latency timeline: '^' marks the buckets
    holding an access above
    :data:`~repro.attacks.probes.SPIKE_THRESHOLD_NS`."""
    # Imported here: the attacks package pulls in every attack module,
    # and the CLI imports this module before it runs anything.
    from repro.attacks.probes import SPIKE_THRESHOLD_NS

    if not times:
        return title
    t_lo, t_hi = min(times), max(times)
    span = (t_hi - t_lo) or 1.0
    marks = [" "] * buckets
    for t, lat in zip(times, latencies):
        index = min(buckets - 1, int((t - t_lo) / span * buckets))
        if lat > SPIKE_THRESHOLD_NS:
            marks[index] = "^"
        elif marks[index] == " ":
            marks[index] = "."
    body = "".join(marks)
    header = f"{title}\n" if title else ""
    return f"{header}|{body}|  ({t_lo/1000:.1f}..{t_hi/1000:.1f} us, ^=spike)"
