"""Render a JSONL trace into human-readable summary tables.

``repro trace summarize out.jsonl`` turns the record stream into:

* a **span table** — the :func:`~repro.obs.analyze.rollup` rows: per
  span name, count, total/self/mean/max duration, the share of the root
  spans' wall time, and errors;
* an **event table** — incident counts per event name (the executor's
  retries/timeouts/rebuilds/fallbacks show up here);
* **metric tables** — counters, gauges, and histogram summaries from
  the final metrics snapshot.

Aggregation is deliberately name-based rather than tree-based: a
T_6² certification emits thousands of ``exec.task`` spans, and the
question a human asks is "where did the time go *per phase*", not "show
me every span".
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.analyze import rollup
from repro.obs.sink import read_trace
from repro.util.tables import Table

__all__ = ["summarize_trace", "summarize_path"]


def _span_table(records: list[dict[str, Any]]) -> Table:
    table = Table(
        [
            "span",
            "count",
            "total s",
            "self s",
            "mean s",
            "max s",
            "% of run",
            "errors",
        ],
        title="Spans",
    )
    for row in rollup(records):
        table.add_row(
            [
                row["name"],
                row["count"],
                f"{row['total_seconds']:.4f}",
                f"{row['self_seconds']:.4f}",
                f"{row['total_seconds'] / row['count']:.4f}",
                f"{row['max_seconds']:.4f}",
                f"{100.0 * row['fraction_of_wall']:.1f}",
                row["errors"],
            ]
        )
    return table


def _event_table(events: list[dict[str, Any]]) -> Table:
    counts: dict[str, int] = {}
    for event in events:
        name = str(event.get("name", "?"))
        counts[name] = counts.get(name, 0) + 1
    table = Table(["event", "count"], title="Events")
    for name in sorted(counts):
        table.add_row([name, counts[name]])
    return table


def _metric_tables(values: dict[str, Any]) -> list[Table]:
    tables: list[Table] = []
    counters = values.get("counters", {})
    if counters:
        table = Table(["counter", "value"], title="Counters")
        for name in sorted(counters):
            table.add_row([name, f"{float(counters[name]):g}"])
        tables.append(table)
    gauges = values.get("gauges", {})
    if gauges:
        table = Table(["gauge", "last value"], title="Gauges")
        for name in sorted(gauges):
            table.add_row([name, f"{float(gauges[name]):g}"])
        tables.append(table)
    histograms = values.get("histograms", {})
    if histograms:
        table = Table(
            ["histogram", "count", "total", "mean", "min", "max"],
            title="Histograms",
        )
        for name in sorted(histograms):
            hist = histograms[name]
            count = int(hist.get("count", 0))
            total = float(hist.get("total", 0.0))
            mean = total / count if count else 0.0
            table.add_row(
                [
                    name,
                    count,
                    f"{total:.4f}",
                    f"{mean:.4f}",
                    "-" if hist.get("min") is None else f"{hist['min']:.4g}",
                    "-" if hist.get("max") is None else f"{hist['max']:.4g}",
                ]
            )
        tables.append(table)
    return tables


def _open_span_ids(
    spans: list[dict[str, Any]], events: list[dict[str, Any]]
) -> list[str]:
    """Span ids referenced in the trace but never closed.

    Spans are journaled on *exit*, so a run that crashed (or is still in
    flight) leaves its open spans with no ``span`` record — they are only
    visible as the ``parent`` of a closed child or the ``span`` of an
    event.  Those dangling ids are exactly the spans that never finished.
    """
    recorded = {span.get("id") for span in spans}
    referenced: set[str] = set()
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            referenced.add(str(parent))
    for event in events:
        owner = event.get("span")
        if owner is not None:
            referenced.add(str(owner))
    return sorted(referenced - recorded)


def summarize_trace(records: list[dict[str, Any]]) -> str:
    """One markdown-compatible text report for a loaded trace.

    Degrades gracefully on partial traces: a header-only file (a run
    that crashed before any span closed) still renders, with a note, and
    spans that never closed are reported instead of silently vanishing.
    """
    header = records[0] if records and records[0].get("kind") == "header" else {}
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]
    metrics = [r for r in records if r.get("kind") == "metrics"]
    parts = [
        f"# Trace summary — {header.get('label', 'trace')}",
        "",
        f"{len(spans)} spans, {len(events)} events, "
        f"{len(records)} records (format v{header.get('version', '?')}, "
        f"pid {header.get('pid', '?')}).",
        "",
    ]
    if not spans and not events and not metrics:
        parts.append(
            "No spans, events, or metrics were recorded — the traced run "
            "may have crashed (or been killed) before any span closed."
        )
        parts.append("")
    open_ids = _open_span_ids(spans, events)
    if open_ids:
        shown = ", ".join(open_ids[:8])
        suffix = ", ..." if len(open_ids) > 8 else ""
        parts.append(
            f"{len(open_ids)} span(s) opened but never closed "
            f"(crashed or interrupted run): {shown}{suffix}"
        )
        parts.append("")
    if spans:
        parts.append(_span_table(records).render())
        parts.append("")
    if events:
        parts.append(_event_table(events).render())
        parts.append("")
    # the *last* metrics record is the final snapshot of the run
    if metrics:
        for table in _metric_tables(metrics[-1].get("values", {})):
            parts.append(table.render())
            parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def summarize_path(path: str | os.PathLike[str]) -> str:
    """Load ``path`` with :func:`~repro.obs.sink.read_trace` and
    summarize it."""
    return summarize_trace(read_trace(path))
