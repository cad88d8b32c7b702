"""Trace analytics: critical path, rollups, utilization, and diffs.

This is the analysis half of the observability stack — it consumes the
record lists produced by :func:`repro.obs.sink.read_trace` and answers
the questions a slow parallel certify run raises:

* **Where did the wall-clock go?**  :func:`critical_path` walks the
  span forest root-to-leaf, always descending into the child that
  *finished last* — the chain whose shortening actually shortens the
  run.  Sibling work off the chain is latency-hidden.
* **Which spans are intrinsically expensive?**  :func:`rollup`
  aggregates per span name, splitting *self* time (duration minus
  direct children) from *child* time, so a fat parent that merely waits
  on children is distinguishable from one doing real work.
* **Was the pool starved?**  :func:`utilization` measures busy
  ``exec.task`` time per interval of the run's wall-clock extent — a
  tail of one-busy-worker intervals is the straggler-shard signature.
* **What changed between two runs?**  :func:`diff_traces` compares two
  traces name-by-name (counts and durations); a trace diffed against
  itself is empty, which CI's trace smoke asserts on a parallel run.
* **Did two runs tell the same story?**  :func:`canonical_form`
  projects a trace onto its timing-free shape, so a serial and a
  ``--jobs 4`` certify compare equal.

Everything returns plain JSON-compatible structures; the ``render_*``
helpers turn them into the fixed-width text the ``repro trace``
subcommands print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import InvalidParameterError, TraceError

__all__ = [
    "SpanNode",
    "build_forest",
    "critical_path",
    "rollup",
    "utilization",
    "diff_traces",
    "canonical_form",
    "render_critical_path",
    "render_waterfall",
    "render_diff",
]


@dataclass
class SpanNode:
    """One span record plus its resolved children, as a tree node."""

    record: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)
    orphan: bool = False

    @property
    def name(self) -> str:
        return str(self.record.get("name", "?"))

    @property
    def span_id(self) -> str:
        return str(self.record.get("id"))

    @property
    def started(self) -> float:
        return float(self.record.get("started_unix", 0.0))

    @property
    def duration(self) -> float:
        return float(self.record.get("duration_seconds", 0.0))

    @property
    def finished(self) -> float:
        return self.started + self.duration

    @property
    def status(self) -> str:
        return str(self.record.get("status", "ok"))

    @property
    def self_seconds(self) -> float:
        """Duration not accounted for by direct children (floored at 0)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def walk(self) -> Iterator["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_forest(records: list[dict[str, Any]]) -> list[SpanNode]:
    """Resolve span records into a forest of :class:`SpanNode` trees.

    Spans whose ``parent`` id never appears in the trace (the parent
    span of a crashed run went unrecorded) become additional roots with
    ``orphan=True`` — analytics degrade gracefully instead of dropping
    their subtrees.  Every span record is its own node, a span without
    an ``id`` too.  Children are ordered by start time, ties broken by
    span id, so the forest is deterministic for equal inputs.
    """
    nodes = [SpanNode(record=r) for r in records if r.get("kind") == "span"]
    by_id = {n.span_id: n for n in nodes if n.record.get("id") is not None}
    roots: list[SpanNode] = []
    for node in nodes:
        parent_id = node.record.get("parent")
        if parent_id is None:
            roots.append(node)
        elif str(parent_id) in by_id:
            by_id[str(parent_id)].children.append(node)
        else:
            node.orphan = True
            roots.append(node)
    order = lambda n: (n.started, n.span_id)  # noqa: E731
    for node in nodes:
        node.children.sort(key=order)
    roots.sort(key=order)
    return roots


def _forest(trace: list[dict[str, Any]] | list[SpanNode]) -> list[SpanNode]:
    if trace and isinstance(trace[0], SpanNode):
        return trace  # type: ignore[return-value]
    return build_forest(trace)  # type: ignore[arg-type]


# ----------------------------------------------------------- critical path


def critical_path(
    trace: list[dict[str, Any]] | list[SpanNode],
) -> list[dict[str, Any]]:
    """The root-to-leaf chain of last-finishing spans.

    Starting from the longest root, descend at each step into the child
    whose *finish* instant is latest — that child gated its parent's
    completion, so the chain is the run's critical path.  Each step
    reports the span's total duration, its self time, and its share of
    the root's duration.  Raises :class:`~repro.errors.TraceError` on a
    trace with no spans at all.
    """
    roots = _forest(trace)
    if not roots:
        raise TraceError("trace has no spans to extract a critical path from")
    root = max(roots, key=lambda n: n.duration)
    path: list[dict[str, Any]] = []
    node: SpanNode | None = root
    depth = 0
    total = root.duration
    while node is not None:
        path.append(
            {
                "name": node.name,
                "id": node.span_id,
                "depth": depth,
                "status": node.status,
                "duration_seconds": node.duration,
                "self_seconds": node.self_seconds,
                "fraction_of_root": (node.duration / total) if total > 0 else 1.0,
                "attributes": dict(node.record.get("attributes", {})),
            }
        )
        node = max(node.children, key=lambda c: c.finished, default=None)
        depth += 1
    return path


# ----------------------------------------------------------------- rollup


def rollup(
    trace: list[dict[str, Any]] | list[SpanNode],
) -> list[dict[str, Any]]:
    """Per-name aggregates: count, total, self-vs-child split, extremes.

    Sorted by descending self time — the order in which optimizing a
    span name actually pays — with the total-duration share relative to
    the summed durations of the forest's roots.  An orphan ran inside a
    span that never closed, so orphans count toward that sum only when
    every root is one.
    """
    roots = _forest(trace)
    wall = sum(r.duration for r in roots if not r.orphan) or sum(
        r.duration for r in roots
    )
    stats: dict[str, dict[str, Any]] = {}
    for root in roots:
        for node in root.walk():
            row = stats.setdefault(
                node.name,
                {
                    "name": node.name,
                    "count": 0,
                    "errors": 0,
                    "total_seconds": 0.0,
                    "self_seconds": 0.0,
                    "max_seconds": 0.0,
                    "min_seconds": None,
                },
            )
            row["count"] += 1
            row["errors"] += 1 if node.status != "ok" else 0
            row["total_seconds"] += node.duration
            row["self_seconds"] += node.self_seconds
            row["max_seconds"] = max(row["max_seconds"], node.duration)
            row["min_seconds"] = (
                node.duration
                if row["min_seconds"] is None
                else min(row["min_seconds"], node.duration)
            )
    rows = sorted(
        stats.values(), key=lambda r: (-r["self_seconds"], r["name"])
    )
    for row in rows:
        row["fraction_of_wall"] = (
            row["total_seconds"] / wall if wall > 0 else 0.0
        )
    return rows


# ------------------------------------------------------------ utilization


def utilization(
    trace: list[dict[str, Any]] | list[SpanNode],
    span_name: str = "exec.task",
    buckets: int = 60,
) -> dict[str, Any]:
    """Busy-workers-per-interval timeline from dispatch-span records.

    Buckets the run's wall-clock extent (first span start to last span
    finish) into ``buckets`` intervals and adds each ``span_name``
    span's overlap with each interval, divided by the interval's width.
    An interval's value is the mean number of busy workers over it, so
    two back-to-back spans on one worker read 1, not 2, where they meet.
    Trailing intervals stuck at 1 expose straggler shards, interior
    zeros expose pool starvation.

    Returns ``{"span_name", "started_unix", "wall_seconds",
    "bucket_seconds", "busy": [float, ...], "peak", "mean"}`` — with no
    matching spans, ``busy`` is empty.
    """
    roots = _forest(trace)
    tasks = [
        node
        for root in roots
        for node in root.walk()
        if node.name == span_name
    ]
    if not tasks:
        return {
            "span_name": span_name,
            "started_unix": 0.0,
            "wall_seconds": 0.0,
            "bucket_seconds": 0.0,
            "busy": [],
            "peak": 0.0,
            "mean": 0.0,
        }
    start = min(node.started for node in tasks)
    finish = max(node.finished for node in tasks)
    wall = max(finish - start, 1e-9)
    width = wall / buckets
    busy = [0.0] * buckets
    for node in tasks:
        begin, end = node.started - start, node.finished - start
        first = max(0, int(begin / width))
        last = min(buckets - 1, int(end / width))
        for index in range(first, last + 1):
            overlap = min(end, (index + 1) * width) - max(begin, index * width)
            busy[index] += max(overlap, 0.0) / width
    return {
        "span_name": span_name,
        "started_unix": start,
        "wall_seconds": wall,
        "bucket_seconds": width,
        "busy": busy,
        "peak": max(busy),
        "mean": sum(busy) / len(busy),
    }


# ------------------------------------------------------------------- diff


def diff_traces(
    before: list[dict[str, Any]],
    after: list[dict[str, Any]],
    tolerance: float = 0.10,
) -> list[dict[str, Any]]:
    """Span-by-span-name comparison of two traces.

    A row appears for every span name whose occurrence *count* changed,
    or whose total duration moved by more than ``tolerance`` (relative,
    against the larger side — so a trace diffed against itself is empty
    at any tolerance).  Rows are sorted by descending absolute duration
    delta.  ``direction`` is ``added``/``removed``/``slower``/``faster``.
    A negative or non-finite ``tolerance`` raises
    :class:`~repro.errors.InvalidParameterError`.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidParameterError(
            f"tolerance must be a finite number >= 0, got {tolerance!r}"
        )
    rows: list[dict[str, Any]] = []
    left = {row["name"]: row for row in rollup(before)}
    right = {row["name"]: row for row in rollup(after)}
    for name in sorted(set(left) | set(right)):
        a = left.get(name)
        b = right.get(name)
        count_a = a["count"] if a else 0
        count_b = b["count"] if b else 0
        total_a = a["total_seconds"] if a else 0.0
        total_b = b["total_seconds"] if b else 0.0
        delta = total_b - total_a
        base = max(abs(total_a), abs(total_b))
        relative = abs(delta) / base if base > 0 else 0.0
        if count_a == count_b and relative <= tolerance:
            continue
        if count_a == 0:
            direction = "added"
        elif count_b == 0:
            direction = "removed"
        else:
            direction = "slower" if delta > 0 else "faster"
        rows.append(
            {
                "name": name,
                "direction": direction,
                "count_before": count_a,
                "count_after": count_b,
                "total_before_seconds": total_a,
                "total_after_seconds": total_b,
                "delta_seconds": delta,
                "relative_change": relative,
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta_seconds"]), r["name"]))
    return rows


# --------------------------------------------------------- canonical form

#: attributes that vary across equivalent runs (pool layout, ids,
#: human-readable timing text) and are dropped by :func:`canonical_form`.
VOLATILE_ATTRIBUTES = frozenset({"mode", "jobs", "workers", "detail", "pid"})


def canonical_form(
    records: list[dict[str, Any]],
    ignore_attributes: frozenset[str] = VOLATILE_ATTRIBUTES,
) -> Any:
    """The timing-free shape of a trace, for cross-run comparison.

    Spans become ``["span", name, status, attributes, children]`` with
    durations, timestamps, ids, and :data:`VOLATILE_ATTRIBUTES` dropped;
    events attach to their span as ``["event", name, attributes]``.
    Sibling order is sorted (pool completion order is nondeterministic),
    so two runs of the same workload — serial or ``--jobs 4`` — compare
    equal exactly when their logical trees agree.
    Metrics records are excluded: counter determinism is a *separate*
    contract (task-order merges), asserted directly by the tests.
    """
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]
    children: dict[Any, list[dict[str, Any]]] = {}
    known = {str(span.get("id")) for span in spans}
    for span in spans:
        parent = span.get("parent")
        key = str(parent) if parent is not None and str(parent) in known else None
        children.setdefault(key, []).append(span)

    def clean(attributes: dict[str, Any]) -> list[list[Any]]:
        return sorted(
            [str(name), repr(value)]
            for name, value in attributes.items()
            if name not in ignore_attributes
        )

    incidents: dict[Any, list[list[Any]]] = {}
    for event in events:
        span_id = event.get("span")
        key = str(span_id) if span_id is not None and str(span_id) in known else None
        incidents.setdefault(key, []).append(
            ["event", str(event.get("name")), clean(event.get("attributes", {}))]
        )

    def node(span: dict[str, Any]) -> list[Any]:
        span_id = str(span.get("id"))
        kids = sorted(
            [node(child) for child in children.get(span_id, [])]
            + incidents.get(span_id, [])
        )
        return [
            "span",
            str(span.get("name")),
            str(span.get("status", "ok")),
            clean(span.get("attributes", {})),
            kids,
        ]

    return sorted(
        [node(root) for root in children.get(None, [])]
        + incidents.get(None, [])
    )


# ------------------------------------------------------------- rendering


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:8.1f}s"
    if value >= 0.1:
        return f"{value:8.3f}s"
    return f"{value * 1e3:7.2f}ms"


def render_critical_path(path: list[dict[str, Any]]) -> list[str]:
    """Fixed-width text for a :func:`critical_path` result."""
    lines = ["critical path (last-finishing chain):", ""]
    lines.append(f"  {'total':>9}  {'self':>9}  {'%root':>6}  span")
    for step in path:
        indent = "  " * step["depth"]
        marker = "!" if step["status"] != "ok" else " "
        lines.append(
            f"  {_fmt_seconds(step['duration_seconds'])} "
            f" {_fmt_seconds(step['self_seconds'])} "
            f" {step['fraction_of_root'] * 100:5.1f}% "
            f"{marker}{indent}{step['name']}"
        )
    return lines


#: bar width of :func:`render_waterfall`, in columns.
WATERFALL_WIDTH = 48
#: spans :func:`render_waterfall` draws before it notes the rest.
WATERFALL_MAX_SPANS = 200


def render_waterfall(
    trace: list[dict[str, Any]] | list[SpanNode],
) -> list[str]:
    """Start-offset waterfall plus the worker-utilization sparkline.

    Each span renders as a bar of :data:`WATERFALL_WIDTH` columns,
    positioned by its start offset within the forest's wall-clock
    extent.  Output is capped at :data:`WATERFALL_MAX_SPANS` rows
    (deepest-first truncation is noted), and a busy-workers timeline for
    ``exec.task`` spans is appended when any exist.
    """
    width = WATERFALL_WIDTH
    roots = _forest(trace)
    if not roots:
        raise TraceError("trace has no spans to render")
    start = min(r.started for r in roots)
    finish = max(
        node.finished for root in roots for node in root.walk()
    )
    wall = max(finish - start, 1e-9)
    lines = [f"waterfall ({wall:.3f}s wall, {width} cols):", ""]
    rows = 0
    truncated = 0

    def emit(node: SpanNode, depth: int) -> None:
        nonlocal rows, truncated
        if rows >= WATERFALL_MAX_SPANS:
            truncated += 1 + sum(1 for _ in node.walk()) - 1
            return
        rows += 1
        left = int((node.started - start) / wall * width)
        span_cols = max(1, round(node.duration / wall * width))
        bar = " " * min(left, width - 1) + "#" * min(span_cols, width - min(left, width - 1))
        marker = "!" if node.status != "ok" else " "
        orphan = " (orphan)" if node.orphan else ""
        lines.append(
            f"  [{bar:<{width}}] {_fmt_seconds(node.duration)} "
            f"{marker}{'  ' * depth}{node.name}{orphan}"
        )
        for child in node.children:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    if truncated:
        lines.append(f"  ... {truncated} more spans")

    timeline = utilization(roots, buckets=width)
    if timeline["busy"]:
        peak = max(timeline["peak"], 1)
        glyphs = " .:-=+*#%@"
        spark = "".join(
            glyphs[min(len(glyphs) - 1, round(b / peak * (len(glyphs) - 1)))]
            for b in timeline["busy"]
        )
        lines.append("")
        lines.append(
            f"  busy workers (exec.task, peak {timeline['peak']:.2f}, "
            f"mean {timeline['mean']:.2f}):"
        )
        lines.append(f"  [{spark}]")
    return lines


def render_diff(rows: list[dict[str, Any]]) -> list[str]:
    """Fixed-width text for a :func:`diff_traces` result."""
    if not rows:
        return ["traces are equivalent (no span-name deltas beyond tolerance)"]
    lines = [f"{len(rows)} span name(s) changed:", ""]
    lines.append(
        f"  {'before':>9}  {'after':>9}  {'delta':>9}  {'n':>9}  change  span"
    )
    for row in rows:
        counts = f"{row['count_before']}->{row['count_after']}"
        lines.append(
            f"  {_fmt_seconds(row['total_before_seconds'])} "
            f" {_fmt_seconds(row['total_after_seconds'])} "
            f" {_fmt_seconds(row['delta_seconds'])} "
            f" {counts:>9}  {row['direction']:<7} {row['name']}"
        )
    return lines
