"""Render sweep results as CSV or Markdown reports.

Used by ``repro sweep --format csv|markdown|json`` and handy for
downstream analysis (the CSV loads directly into pandas/numpy).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List

from repro.experiments.sweep import SweepResult


def sweep_to_csv(result: SweepResult) -> str:
    """One row per x value; two columns (meta, file) per protocol."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header: List[str] = [result.x_label]
    for protocol in result.protocols:
        header.append(f"{protocol}_metadata")
        header.append(f"{protocol}_file")
    writer.writerow(header)
    for point in result.points:
        row: List[object] = [point.x]
        for protocol in result.protocols:
            meta, file_ratio = point.ratios[protocol]
            row.append(f"{meta:.6f}")
            row.append(f"{file_ratio:.6f}")
        writer.writerow(row)
    return buffer.getvalue()


def sweep_to_markdown(result: SweepResult) -> str:
    """GitHub-flavoured Markdown table of one panel."""
    header = [result.x_label]
    for protocol in result.protocols:
        header.append(f"{protocol} meta")
        header.append(f"{protocol} file")
    lines = [
        f"### {result.name}",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for point in result.points:
        cells = [f"{point.x:g}"]
        for protocol in result.protocols:
            meta, file_ratio = point.ratios[protocol]
            cells.append(f"{meta:.3f}")
            cells.append(f"{file_ratio:.3f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def sweep_to_dict(result: SweepResult) -> Dict[str, Any]:
    """Plain-dict form of one panel (JSON-serializable)."""
    return {
        "name": result.name,
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "protocols": list(result.protocols),
        "points": [
            {
                "x": point.x,
                "ratios": {
                    protocol: {"metadata": meta, "file": file_ratio}
                    for protocol, (meta, file_ratio) in point.ratios.items()
                },
            }
            for point in result.points
        ],
    }


def sweep_to_json(result: SweepResult, indent: int = 2) -> str:
    """JSON text of one panel."""
    return json.dumps(sweep_to_dict(result), indent=indent)


def combined_markdown_report(results: Iterable[SweepResult], title: str) -> str:
    """Concatenate several panels under one heading."""
    parts = [f"# {title}", ""]
    for result in results:
        parts.append(sweep_to_markdown(result))
        parts.append("")
    return "\n".join(parts)
