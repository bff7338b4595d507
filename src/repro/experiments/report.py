"""Markdown report generation from experiment results.

Turns a list of :class:`ExperimentResult` (or the JSON the CLI's ``--json``
flag writes) into a self-contained markdown report, regenerable after any
code change::

    python -m repro.cli all --quick --json results.json
    python -c "from repro.experiments.report import report_from_json; \\
               print(report_from_json('results.json'))" > REPORT.md
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from repro.experiments.common import ExperimentResult


def _markdown_table(rows: Sequence[dict]) -> str:
    columns: list = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(row.get(c)) for c in columns) + " |")
    return "\n".join(lines)


def render_markdown(results: Sequence[ExperimentResult], title: str = "Results") -> str:
    """Render results as a markdown document (one section per experiment)."""
    parts = [f"# {title}", ""]
    for result in results:
        parts.append(f"## {result.experiment}")
        parts.append("")
        parts.append(result.description)
        parts.append("")
        if result.params:
            rendered = ", ".join(f"{k}={v}" for k, v in result.params.items())
            parts.append(f"*Parameters:* {rendered}")
            parts.append("")
        if result.rows:
            parts.append(_markdown_table(result.rows))
            parts.append("")
        for note in result.notes:
            parts.append(f"> {note}")
        if result.notes:
            parts.append("")
    return "\n".join(parts)


def metrics_markdown(source: Union[str, Path, dict],
                     title: str = "Run metrics") -> str:
    """Render a :class:`repro.obs.MetricsRegistry` dump as markdown.

    ``source`` is either the JSON file written by
    ``repro.obs.export.write_metrics`` (or the already-loaded payload
    dict): the sampled timeseries becomes one table, and each
    histogram's summary becomes a row of a second one."""
    if isinstance(source, dict):
        payload = source
    else:
        payload = json.loads(Path(source).read_text())
    parts = [f"# {title}", ""]
    samples = payload.get("samples", [])
    if samples:
        # JSON round-trips sort row keys; the registry's column order
        # (time, counters, gauges) is recorded separately — restore it.
        columns = payload.get("columns")
        if columns:
            samples = [{c: row.get(c) for c in columns} for row in samples]
        parts.append("## Sampled timeseries")
        parts.append("")
        parts.append(_markdown_table(samples))
        parts.append("")
    histograms = payload.get("histograms", {})
    if histograms:
        rows = [dict(metric=name, **summary)
                for name, summary in sorted(histograms.items())]
        parts.append("## Histograms")
        parts.append("")
        parts.append(_markdown_table(rows))
        parts.append("")
    return "\n".join(parts)


def report_from_json(path: Union[str, Path], title: str = "Results") -> str:
    """Render the JSON written by ``python -m repro.cli ... --json``."""
    payload = json.loads(Path(path).read_text())
    results = [
        ExperimentResult(
            experiment=entry["experiment"],
            description=entry.get("description", ""),
            rows=entry.get("rows", []),
            params=entry.get("params", {}),
            notes=entry.get("notes", []),
        )
        for entry in payload
    ]
    return render_markdown(results, title=title)
