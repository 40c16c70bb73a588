"""Terminal line charts for sweep results.

No plotting dependency is available offline, so ``repro sweep --format
plot`` renders each panel as an ASCII chart: x positions map to columns, the
[0, 1] delivery-ratio range maps to rows, and each protocol gets a
marker. Good enough to *see* the crossovers and flat lines the paper's
figures show, directly in a terminal or CI log.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.sweep import SweepResult

#: Marker per protocol, in registration order.
MARKERS = ("*", "o", "x", "+", "#", "@")


def render_series(
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    width: int = 60,
    height: int = 16,
    y_max: float = 1.0,
) -> str:
    """Render named y-series over shared x values as an ASCII chart."""
    if width < 10 or height < 4:
        raise ValueError("chart too small")
    if not x_values:
        raise ValueError("no x values")
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(f"series {name!r} length mismatch")

    grid: List[List[str]] = [[" "] * width for __ in range(height)]
    x_lo, x_hi = min(x_values), max(x_values)
    x_span = (x_hi - x_lo) or 1.0

    def col(x: float) -> int:
        return min(width - 1, int((x - x_lo) / x_span * (width - 1)))

    def row(y: float) -> int:
        clamped = min(max(y, 0.0), y_max)
        return min(height - 1, int((1.0 - clamped / y_max) * (height - 1)))

    legend: List[str] = []
    for index, (name, values) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        legend.append(f"{marker} {name}")
        # Connect consecutive points with interpolated marks.
        for (x0, y0), (x1, y1) in zip(
            zip(x_values, values), zip(x_values[1:], values[1:])
        ):
            c0, c1 = col(x0), col(x1)
            steps = max(1, c1 - c0)
            for step in range(steps + 1):
                t = step / steps
                c = c0 + step
                r = row(y0 + t * (y1 - y0))
                grid[r][min(c, width - 1)] = marker
        # End points drawn last so they always show.
        for x, y in zip(x_values, values):
            grid[row(y)][col(x)] = marker

    lines = []
    for index, cells in enumerate(grid):
        y_label = y_max * (1.0 - index / (height - 1))
        lines.append(f"{y_label:5.2f} |" + "".join(cells))
    lines.append("      +" + "-" * width)
    lines.append(f"       {x_lo:<10.3g}{'':^{max(0, width - 20)}}{x_hi:>10.3g}")
    lines.append("       " + "   ".join(legend))
    return "\n".join(lines)


def render_panel(result: SweepResult, metric: str = "file", **kwargs) -> str:
    """Render one sweep panel (``metric``: "file" or "metadata")."""
    if metric not in ("file", "metadata"):
        raise ValueError(f"unknown metric {metric!r}")
    series = {}
    for protocol in result.protocols:
        if metric == "file":
            series[protocol] = result.file_series(protocol)
        else:
            series[protocol] = result.metadata_series(protocol)
    chart = render_series(result.x_values, series, **kwargs)
    return f"{result.name} — {metric} delivery ratio\n{chart}"
