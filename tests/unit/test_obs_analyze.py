"""Tests for repro.obs.analyze — forests, critical path, rollups, diffs."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, TraceError
from repro.obs import (
    build_forest,
    canonical_form,
    critical_path,
    diff_traces,
    rollup,
    utilization,
)
from repro.obs.analyze import (
    render_critical_path,
    render_diff,
    render_waterfall,
)


def _span(name, span_id, parent, started, duration, status="ok", **attrs):
    return {
        "kind": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "status": status,
        "started_unix": started,
        "duration_seconds": duration,
        "attributes": attrs,
    }


def _forest_records():
    """A hand-built two-level run.

    root [0, 10]
      ├── fast  [1, 3]   (2s)
      └── slow  [2, 9]   (7s)
            └── leaf [3, 8] (5s)
    """
    return [
        {"kind": "header", "version": 1, "label": "t"},
        _span("root", "s1", None, 0.0, 10.0),
        _span("fast", "s2", "s1", 1.0, 2.0),
        _span("slow", "s3", "s1", 2.0, 7.0),
        _span("leaf", "s4", "s3", 3.0, 5.0, status="error"),
    ]


class TestBuildForest:
    def test_tree_shape(self):
        roots = build_forest(_forest_records())
        assert [r.name for r in roots] == ["root"]
        (root,) = roots
        assert [c.name for c in root.children] == ["fast", "slow"]
        assert [c.name for c in root.children[1].children] == ["leaf"]

    def test_children_ordered_by_start_time(self):
        records = [
            _span("root", "r", None, 0.0, 10.0),
            _span("late", "b", "r", 5.0, 1.0),
            _span("early", "a", "r", 1.0, 1.0),
        ]
        (root,) = build_forest(records)
        assert [c.name for c in root.children] == ["early", "late"]

    def test_orphaned_span_becomes_flagged_root(self):
        # the parent span never closed (crashed run) — its id appears
        # only as a dangling reference
        records = [
            _span("root", "s1", None, 0.0, 10.0),
            _span("lost", "s9", "never-closed", 1.0, 2.0),
        ]
        roots = build_forest(records)
        assert {r.name for r in roots} == {"root", "lost"}
        by_name = {r.name: r for r in roots}
        assert by_name["lost"].orphan is True
        assert by_name["root"].orphan is False

    def test_self_seconds_clamped_at_zero(self):
        # children overlapping their parent (recorded clock skew) must
        # not produce negative self time
        records = [
            _span("root", "s1", None, 0.0, 1.0),
            _span("child", "s2", "s1", 0.0, 5.0),
        ]
        (root,) = build_forest(records)
        assert root.self_seconds == 0.0


class TestCriticalPath:
    def test_descends_into_latest_finishing_child(self):
        path = critical_path(_forest_records())
        assert [row["name"] for row in path] == ["root", "slow", "leaf"]
        assert [row["depth"] for row in path] == [0, 1, 2]

    def test_fractions_and_self_time(self):
        path = critical_path(_forest_records())
        root, slow, leaf = path
        assert root["fraction_of_root"] == 1.0
        assert slow["fraction_of_root"] == pytest.approx(0.7)
        # root self = 10 - (2 + 7); slow self = 7 - 5
        assert root["self_seconds"] == pytest.approx(1.0)
        assert slow["self_seconds"] == pytest.approx(2.0)
        assert leaf["status"] == "error"

    def test_picks_longest_root(self):
        records = [
            _span("minor", "a", None, 0.0, 1.0),
            _span("major", "b", None, 0.0, 9.0),
        ]
        path = critical_path(records)
        assert path[0]["name"] == "major"

    def test_orphans_can_carry_the_path(self):
        records = [
            _span("root", "s1", None, 0.0, 1.0),
            _span("orphan", "s2", "gone", 0.0, 9.0),
        ]
        path = critical_path(records)
        assert path[0]["name"] == "orphan"

    def test_empty_trace_raises(self):
        with pytest.raises(TraceError, match="no spans"):
            critical_path([{"kind": "header", "version": 1}])


class TestRollup:
    def test_sorted_by_self_time(self):
        rows = rollup(_forest_records())
        assert [row["name"] for row in rows] == [
            "leaf",  # self 5.0
            "fast",  # self 2.0 (ties broken by name)
            "slow",  # self 2.0
            "root",  # self 1.0
        ]

    def test_counts_totals_and_errors(self):
        rows = {row["name"]: row for row in rollup(_forest_records())}
        assert rows["root"]["count"] == 1
        assert rows["root"]["total_seconds"] == pytest.approx(10.0)
        assert rows["root"]["fraction_of_wall"] == pytest.approx(1.0)
        assert rows["leaf"]["errors"] == 1
        assert rows["fast"]["errors"] == 0

    def test_min_max_over_repeated_name(self):
        records = [
            _span("root", "r", None, 0.0, 10.0),
            _span("exec.task", "a", "r", 0.0, 1.0),
            _span("exec.task", "b", "r", 2.0, 4.0),
        ]
        rows = {row["name"]: row for row in rollup(records)}
        task = rows["exec.task"]
        assert task["count"] == 2
        assert task["min_seconds"] == pytest.approx(1.0)
        assert task["max_seconds"] == pytest.approx(4.0)


class TestUtilization:
    def test_counts_overlapping_spans(self):
        records = [
            _span("exec.run", "r", None, 0.0, 4.0),
            _span("exec.task", "a", "r", 0.0, 1.5),
            _span("exec.task", "b", "r", 0.0, 4.0),
            _span("exec.task", "c", "r", 2.5, 1.5),
        ]
        timeline = utilization(records, buckets=4)
        assert timeline["peak"] == 2
        assert timeline["busy"][0] == 2  # a + b
        assert timeline["busy"][-1] == 2  # b + c
        assert timeline["wall_seconds"] == pytest.approx(4.0)

    def test_back_to_back_spans_count_one_worker(self):
        # one worker runs a then b; the bucket where they meet is busy
        # for its full width once, not twice
        records = [
            _span("exec.run", "r", None, 0.0, 2.0),
            _span("exec.task", "a", "r", 0.0, 1.0),
            _span("exec.task", "b", "r", 1.0, 1.0),
        ]
        timeline = utilization(records, buckets=4)
        assert timeline["busy"] == pytest.approx([1.0] * 4)
        assert timeline["peak"] == pytest.approx(1.0)
        assert timeline["mean"] == pytest.approx(1.0)

    def test_no_matching_spans_is_empty_timeline(self):
        timeline = utilization(_forest_records(), span_name="exec.task")
        assert timeline["busy"] == []
        assert timeline["peak"] == 0

    def test_custom_span_name(self):
        timeline = utilization(
            _forest_records(), span_name="leaf", buckets=5
        )
        assert timeline["peak"] == 1
        assert timeline["wall_seconds"] == pytest.approx(5.0)


class TestDiffTraces:
    def test_self_diff_is_empty_at_any_tolerance(self):
        records = _forest_records()
        assert diff_traces(records, records, tolerance=0.0) == []

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_tolerance_is_rejected(self, tolerance):
        # a self-diff would list every span as "faster" at -1 or nan
        records = _forest_records()
        with pytest.raises(InvalidParameterError, match="tolerance"):
            diff_traces(records, records, tolerance=tolerance)

    def test_added_and_removed_names(self):
        before = [_span("old.phase", "a", None, 0.0, 1.0)]
        after = [_span("new.phase", "b", None, 0.0, 1.0)]
        rows = {row["name"]: row for row in diff_traces(before, after)}
        assert rows["old.phase"]["direction"] == "removed"
        assert rows["new.phase"]["direction"] == "added"

    def test_slower_beyond_tolerance(self):
        before = [_span("work", "a", None, 0.0, 1.0)]
        after = [_span("work", "b", None, 0.0, 2.0)]
        (row,) = diff_traces(before, after, tolerance=0.10)
        assert row["direction"] == "slower"
        assert row["delta_seconds"] == pytest.approx(1.0)
        assert row["relative_change"] == pytest.approx(0.5)

    def test_within_tolerance_is_silent(self):
        before = [_span("work", "a", None, 0.0, 1.0)]
        after = [_span("work", "b", None, 0.0, 1.05)]
        assert diff_traces(before, after, tolerance=0.10) == []

    def test_count_change_always_reports(self):
        before = [_span("work", "a", None, 0.0, 1.0)]
        after = [
            _span("work", "b", None, 0.0, 0.5),
            _span("work", "c", None, 0.5, 0.5),
        ]
        (row,) = diff_traces(before, after, tolerance=0.50)
        assert row["count_before"] == 1
        assert row["count_after"] == 2

    def test_sorted_by_absolute_delta(self):
        before = [
            _span("small", "a", None, 0.0, 1.0),
            _span("big", "b", None, 0.0, 1.0),
        ]
        after = [
            _span("small", "c", None, 0.0, 1.3),
            _span("big", "d", None, 0.0, 5.0),
        ]
        rows = diff_traces(before, after)
        assert [row["name"] for row in rows] == ["big", "small"]


def _pool_run(prefix="p", jobs=2, mode="pool"):
    """A parallel run's records: two tasks under ``exec.run``, one event."""
    return [
        {"kind": "header", "version": 1, "label": "certify"},
        _span("exec.task", f"{prefix}2", f"{prefix}1", 1.0, 2.0,
              task_id="root-0", attempt=0, mode=mode),
        _span("exec.task", f"{prefix}3", f"{prefix}1", 1.5, 1.0,
              task_id="root-1", attempt=0, mode=mode),
        {
            "kind": "event",
            "name": "exec.retry",
            "span": f"{prefix}1",
            "attributes": {"task_id": "root-1", "attempt": 1},
        },
        _span("exec.run", f"{prefix}1", None, 0.0, 4.0, tasks=2, jobs=jobs),
        {"kind": "metrics", "values": {"counters": {"exec.tasks": 2.0}}},
    ]


class TestCanonicalForm:
    def test_ignores_volatile_attributes_and_ids(self):
        # same logical run, other span ids, pool layout and dispatch mode
        other = _pool_run(prefix="q", jobs=4, mode="inline")
        assert canonical_form(_pool_run()) == canonical_form(other)

    def test_detects_structural_differences(self):
        records = _pool_run()
        pruned = [r for r in records if r.get("id") != "p3"]
        assert canonical_form(records) != canonical_form(pruned)

    def test_durations_do_not_affect_the_form(self):
        records = _pool_run()
        slower = [dict(r) for r in records]
        for record in slower:
            if record.get("kind") == "span":
                record["duration_seconds"] = 99.0
        assert canonical_form(records) == canonical_form(slower)


class TestRenderers:
    def test_render_critical_path_lines(self):
        lines = render_critical_path(critical_path(_forest_records()))
        text = "\n".join(lines)
        assert "root" in text and "slow" in text and "leaf" in text

    def test_render_waterfall_marks_orphans_and_errors(self):
        records = _forest_records() + [
            _span("stray", "s9", "gone", 4.0, 1.0)
        ]
        text = "\n".join(render_waterfall(records))
        assert "root" in text
        assert "stray" in text

    def test_render_waterfall_empty_raises(self):
        with pytest.raises(TraceError):
            render_waterfall([{"kind": "header", "version": 1}])

    def test_render_diff_empty_and_nonempty(self):
        assert render_diff([]) == [
            "traces are equivalent (no span-name deltas beyond tolerance)"
        ]
        before = [_span("work", "a", None, 0.0, 1.0)]
        after = [_span("work", "b", None, 0.0, 3.0)]
        lines = render_diff(diff_traces(before, after))
        assert any("work" in line for line in lines)
