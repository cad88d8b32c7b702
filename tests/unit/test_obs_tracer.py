"""Tests for repro.obs.tracer — spans, ambient installation, null paths."""

from __future__ import annotations

import os

import pytest

from repro.errors import SearchError
from repro.obs import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    using_tracer,
)
from repro.obs.tracer import _NULL_SPAN


class _ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestSpanNesting:
    def test_parent_ids_follow_the_open_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert outer.parent_id is None
            assert tracer.current_span_id() == outer.span_id
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert tracer.current_span_id() is None

    def test_span_ids_are_unique_and_pid_qualified(self):
        tracer = Tracer()
        ids = set()
        for _ in range(50):
            with tracer.span("s") as span:
                ids.add(span.span_id)
        assert len(ids) == 50
        assert all(s.startswith(f"{os.getpid():08x}-") for s in ids)

    def test_durations_are_monotonic_and_set_on_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.duration_seconds >= 0.0

    def test_error_status_on_exception(self):
        tracer = Tracer()
        with pytest.raises(SearchError):
            with tracer.span("failing") as span:
                raise SearchError("boom")
        assert span.status == "error"
        assert span.attributes["error"] == "SearchError"

    def test_annotate_merges_attributes(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as span:
            span.annotate(b=2)
        assert span.attributes == {"a": 1, "b": 2}

    def test_finished_spans_kept_without_sink(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [record["name"] for record in sink.records] == ["b", "a"]


class TestRecordsAndEvents:
    def test_span_record_shape(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("work", k=4):
            pass
        (record,) = sink.records
        assert record["kind"] == "span"
        assert record["name"] == "work"
        assert record["parent"] is None
        assert record["attributes"] == {"k": 4}
        assert record["status"] == "ok"

    def test_event_attached_to_open_span(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("outer") as outer:
            tracer.event("exec.retry", task_id="t-1")
        event = sink.records[0]
        assert event["kind"] == "event"
        assert event["span"] == outer.span_id
        assert event["attributes"]["task_id"] == "t-1"

    def test_record_span_parents_to_open_span(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("run") as run:
            tracer.record_span("exec.task", 0.25, task_id="t-0")
        task = sink.records[0]
        assert task["kind"] == "span"
        assert task["parent"] == run.span_id
        assert task["duration_seconds"] == 0.25

    def test_finish_flushes_metrics_and_is_idempotent(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        tracer.metrics.counter("n").add(3)
        tracer.finish()
        tracer.finish()
        metric_records = [
            r for r in sink.records if r["kind"] == "metrics"
        ]
        assert len(metric_records) == 1
        assert metric_records[0]["values"]["counters"] == {"n": 3.0}


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_using_tracer_installs_and_restores(self):
        tracer = Tracer()
        with using_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_using_tracer_none_is_a_noop(self):
        tracer = Tracer()
        with using_tracer(tracer):
            with using_tracer(None):
                assert current_tracer() is tracer
            assert current_tracer() is tracer

    def test_nested_using_tracer_restores_outer(self):
        outer, inner = Tracer(label="o"), Tracer(label="i")
        with using_tracer(outer):
            with using_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer


class TestNullTracer:
    def test_span_is_the_shared_noop(self):
        assert NULL_TRACER.span("anything", k=1) is _NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span.annotate(a=1) is span
        assert NULL_TRACER.current_span_id() is None

    def test_all_operations_are_noops(self):
        NULL_TRACER.record_span("s", 1.0)
        NULL_TRACER.event("e", detail="x")
        NULL_TRACER.finish()
        assert not NULL_TRACER.enabled

    def test_null_span_swallows_nothing(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError("must propagate")
