"""Tests for repro.obs.sink — JSONL persistence and the tolerant reader."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceError
from repro.obs import JsonlTraceSink, TRACE_VERSION, Tracer, read_trace


class TestJsonlTraceSink:
    def test_header_is_the_first_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, label="unit"):
            pass
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["version"] == TRACE_VERSION
        assert header["label"] == "unit"

    def test_round_trip_preserves_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "event", "name": "a", "attributes": {"x": 1}})
            sink.emit({"kind": "span", "name": "b", "duration_seconds": 0.5})
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["header", "event", "span"]
        assert records[1]["attributes"] == {"x": 1}
        assert records[2]["duration_seconds"] == 0.5

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        JsonlTraceSink(path).close()
        assert path.exists()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()  # close is twice-safe
        with pytest.raises(TraceError, match="closed"):
            sink.emit({"kind": "event", "name": "late"})

    def test_tracer_integration_ends_with_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlTraceSink(path, label="run"), label="run")
        with tracer.span("work"):
            tracer.metrics.counter("n").add(2)
        tracer.finish()
        records = read_trace(path)
        assert records[-1]["kind"] == "metrics"
        assert records[-1]["values"]["counters"] == {"n": 2.0}


class TestReadTrace:
    def _write_trace(self, tmp_path, extra_lines=()):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "event", "name": "a"})
            sink.emit({"kind": "event", "name": "b"})
        if extra_lines:
            with path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(extra_lines))
        return path

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            read_trace(tmp_path / "nope.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "span", "name": "orphan"}\n')
        with pytest.raises(TraceError, match="header"):
            read_trace(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": TRACE_VERSION + 1}) + "\n"
        )
        with pytest.raises(TraceError, match="version"):
            read_trace(path)

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = self._write_trace(
            tmp_path, extra_lines=['{"kind": "span", "name": "torn', ""]
        )
        records = read_trace(path)
        assert [r.get("name") for r in records[1:]] == ["a", "b"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = self._write_trace(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = '{"kind": "event", "name": "mangled'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="corrupt mid-file"):
            read_trace(path)

    def test_non_object_interior_line_raises(self, tmp_path):
        path = self._write_trace(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = "[1, 2, 3]"  # valid JSON, but not a record object
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="corrupt mid-file"):
            read_trace(path)


class TestReadTraceDirectoryAndGlob:
    """A run writes one trace file; directories and patterns are rejected."""

    def _write(self, path, label):
        with JsonlTraceSink(path, label=label) as sink:
            sink.emit({"kind": "event", "name": f"from-{label}"})
        return path

    def test_directory_raises(self, tmp_path):
        self._write(tmp_path / "trace.jsonl", "a")
        with pytest.raises(TraceError, match="is a directory"):
            read_trace(tmp_path)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(TraceError, match="is a directory"):
            read_trace(tmp_path)

    def test_glob_pattern_raises(self, tmp_path):
        # patterns are not expanded, even when they match a trace
        self._write(tmp_path / "t1.jsonl", "one")
        with pytest.raises(TraceError, match="does not exist"):
            read_trace(tmp_path / "t*.jsonl")

    def test_glob_with_no_matches_raises(self, tmp_path):
        with pytest.raises(TraceError):
            read_trace(tmp_path / "nothing-*.jsonl")
