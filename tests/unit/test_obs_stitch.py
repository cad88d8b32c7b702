"""Tests for repro.obs.stitch — cross-process trace merging."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.obs import (
    JsonlTraceSink,
    canonical_form,
    load_stitched,
    read_trace,
    split_segments,
    stitch_path,
    stitch_traces,
    worker_trace_dir,
)


def _parent_records(run="aaaa0001", exec_run="aaaa0001-x0001"):
    return [
        {"kind": "header", "version": 1, "label": "certify", "run": run},
        {
            "kind": "span",
            "name": "exec.task",
            "id": "p2",
            "parent": "p1",
            "status": "ok",
            "started_unix": 1.0,
            "duration_seconds": 2.0,
            "attributes": {
                "exec_run": exec_run,
                "task_id": "shard-00000",
                "attempt": 0,
            },
        },
        {
            "kind": "span",
            "name": "exec.run",
            "id": "p1",
            "parent": None,
            "status": "ok",
            "started_unix": 0.0,
            "duration_seconds": 4.0,
            "attributes": {"exec_run": exec_run},
        },
        {
            "kind": "metrics",
            "values": {"counters": {"exec.tasks": 1.0}, "gauges": {}, "histograms": {}},
        },
    ]


def _worker_records(run="aaaa0001", exec_run="aaaa0001-x0001"):
    return [
        {
            "kind": "header",
            "version": 1,
            "label": "worker",
            "worker": True,
            "run": run,
            "exec_run": exec_run,
        },
        {
            "kind": "span",
            "name": "shard.compute",
            "id": "w2",
            "parent": "w1",
            "status": "ok",
            "started_unix": 1.2,
            "duration_seconds": 1.0,
            "attributes": {},
        },
        {
            "kind": "span",
            "name": "exec.task.body",
            "id": "w1",
            "parent": None,
            "status": "ok",
            "started_unix": 1.1,
            "duration_seconds": 1.8,
            "attributes": {
                "task_id": "shard-00000",
                "attempt": 0,
            },
        },
        {"kind": "event", "name": "shard.tick", "span": "w1", "attributes": {}},
        {
            "kind": "metrics",
            "values": {
                "counters": {"search.pair_updates": 12.0},
                "gauges": {},
                "histograms": {},
            },
        },
    ]


class TestSplitSegments:
    def test_splits_at_headers(self):
        records = _parent_records() + _worker_records()
        segments = split_segments(records)
        assert len(segments) == 2
        assert segments[0][0]["label"] == "certify"
        assert segments[1][0]["label"] == "worker"

    def test_headerless_stream_raises(self):
        with pytest.raises(TraceError, match="start with a trace header"):
            split_segments([{"kind": "span", "name": "x"}])


class TestStitchTraces:
    def test_body_span_spliced_into_dispatching_task(self):
        stitched = stitch_traces(_parent_records(), [_worker_records()])
        spans = {r["id"]: r for r in stitched if r.get("kind") == "span"}
        # the body span itself vanishes; its child hangs off exec.task
        assert "w1" not in spans
        assert spans["w2"]["parent"] == "p2"

    def test_events_remapped_to_dispatching_task(self):
        stitched = stitch_traces(_parent_records(), [_worker_records()])
        (event,) = [r for r in stitched if r.get("kind") == "event"]
        assert event["span"] == "p2"

    def test_header_flags_stitched(self):
        stitched = stitch_traces(_parent_records(), [_worker_records()])
        header = stitched[0]
        assert header["stitched"] is True
        assert header["worker_files"] == 1

    def test_metrics_merged_across_segments(self):
        stitched = stitch_traces(_parent_records(), [_worker_records()])
        (metrics,) = [r for r in stitched if r.get("kind") == "metrics"]
        counters = metrics["values"]["counters"]
        assert counters["exec.tasks"] == 1.0
        assert counters["search.pair_updates"] == 12.0

    def test_parentless_worker_span_anchored_to_exec_run(self):
        worker = _worker_records()
        worker.append(
            {
                "kind": "span",
                "name": "worker.idle",
                "id": "w9",
                "parent": None,
                "status": "ok",
                "started_unix": 3.0,
                "duration_seconds": 0.5,
                "attributes": {},
            }
        )
        stitched = stitch_traces(_parent_records(), [worker])
        spans = {r["id"]: r for r in stitched if r.get("kind") == "span"}
        assert spans["w9"]["parent"] == "p1"
        assert spans["w9"]["attributes"]["stitch_orphan"] is False

    def test_unmatched_body_kept_as_orphan(self):
        worker = _worker_records(exec_run="aaaa0001-x9999")
        stitched = stitch_traces(_parent_records(), [worker])
        spans = {r["id"]: r for r in stitched if r.get("kind") == "span"}
        # no dispatch record for that exec_run: body survives, orphaned
        assert "w1" in spans
        assert spans["w1"]["attributes"]["stitch_orphan"] is True

    def test_run_id_mismatch_raises(self):
        with pytest.raises(TraceError, match="does not match"):
            stitch_traces(
                _parent_records(run="aaaa0001"),
                [_worker_records(run="bbbb0002")],
            )

    def test_headerless_parent_raises(self):
        with pytest.raises(TraceError, match="parent trace has no header"):
            stitch_traces([{"kind": "span"}], [])


class TestStitchPath:
    def _write(self, path, records):
        with JsonlTraceSink(path, label="x") as sink:
            for record in records[1:]:
                sink.emit(record)
        # overwrite the auto header with the fixture's
        lines = path.read_text(encoding="utf-8").splitlines()
        import json

        lines[0] = json.dumps(records[0], sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_stitches_worker_directory(self, tmp_path):
        parent = tmp_path / "trace.jsonl"
        self._write(parent, _parent_records())
        workers = worker_trace_dir(parent)
        workers.mkdir()
        self._write(workers / "worker-a.jsonl", _worker_records())
        stitched = stitch_path(parent)
        assert stitched[0]["stitched"] is True
        spans = {r["id"]: r for r in stitched if r.get("kind") == "span"}
        assert spans["w2"]["parent"] == "p2"

    def test_load_stitched_falls_back_to_plain_trace(self, tmp_path):
        parent = tmp_path / "trace.jsonl"
        self._write(parent, _parent_records())
        records = load_stitched(parent)
        assert records[0].get("stitched") is None
        assert read_trace(parent)[0]["kind"] == "header"


class TestCanonicalForm:
    def test_ignores_volatile_attributes_and_ids(self):
        records = _parent_records()
        stitched = stitch_traces(records, [_worker_records()])
        # same logical trace with different exec_run/pid volatile attrs
        other = stitch_traces(
            _parent_records(exec_run="aaaa0001-x0007"),
            [_worker_records(exec_run="aaaa0001-x0007")],
        )
        assert canonical_form(stitched) == canonical_form(other)

    def test_detects_structural_differences(self):
        stitched = stitch_traces(_parent_records(), [_worker_records()])
        pruned = [r for r in stitched if r.get("id") != "w2"]
        assert canonical_form(stitched) != canonical_form(pruned)

    def test_durations_do_not_affect_the_form(self):
        records = _parent_records()
        slower = [dict(r) for r in records]
        for record in slower:
            if record.get("kind") == "span":
                record["duration_seconds"] = 99.0
        assert canonical_form(records) == canonical_form(slower)
