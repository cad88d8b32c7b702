"""Tests for repro.obs.summary — trace rendering."""

from __future__ import annotations

from repro.cli import main
from repro.obs import (
    JsonlTraceSink,
    Tracer,
    read_trace,
    summarize_path,
    summarize_trace,
)


def _records():
    return [
        {"kind": "header", "version": 1, "label": "certify", "pid": 7},
        {
            "kind": "span",
            "name": "search.certify",
            "parent": None,
            "duration_seconds": 2.0,
            "status": "ok",
        },
        {
            "kind": "span",
            "name": "exec.task",
            "parent": "root",
            "duration_seconds": 0.5,
            "status": "ok",
        },
        {
            "kind": "span",
            "name": "exec.task",
            "parent": "root",
            "duration_seconds": 1.5,
            "status": "error",
        },
        {"kind": "event", "name": "exec.retry"},
        {"kind": "event", "name": "exec.retry"},
        {"kind": "event", "name": "exec.timeout"},
        {
            "kind": "metrics",
            "values": {
                "counters": {"search.leaves": 10.0},
                "gauges": {"engine.pairs_per_sec": 123.0},
                "histograms": {
                    "exec.task_seconds": {
                        "count": 2,
                        "total": 2.0,
                        "min": 0.5,
                        "max": 1.5,
                        "buckets": {"0": 2},
                    }
                },
            },
        },
    ]


class TestSummarizeTrace:
    def test_header_and_counts_line(self):
        text = summarize_trace(_records())
        assert text.startswith("# Trace summary — certify")
        assert "3 spans, 3 events, 8 records" in text

    def test_span_table_aggregates_by_name(self):
        text = summarize_trace(_records())
        # exec.task: two spans totalling 2.0s, one error; root defines 100%
        assert "exec.task" in text
        assert "search.certify" in text
        assert "100.0" in text  # root span share of its own wall time

    def test_event_counts(self):
        text = summarize_trace(_records())
        assert "exec.retry" in text and "exec.timeout" in text

    def test_metric_tables_render_final_snapshot(self):
        text = summarize_trace(_records())
        assert "search.leaves" in text
        assert "engine.pairs_per_sec" in text
        assert "exec.task_seconds" in text

    def test_spanless_trace_still_renders(self):
        text = summarize_trace([{"kind": "header", "version": 1, "pid": 1}])
        assert "0 spans, 0 events" in text

    def test_header_only_trace_notes_the_crash(self):
        # a run killed before any span closed leaves only the header
        text = summarize_trace([{"kind": "header", "version": 1, "pid": 1}])
        assert "may have crashed" in text

    def test_empty_record_list_renders(self):
        text = summarize_trace([])
        assert "0 spans, 0 events, 0 records" in text

    def test_unclosed_spans_reported_not_raised(self):
        # spans journal on exit: a crashed run's open spans only exist
        # as dangling parent/event references — they must be surfaced
        records = [
            {"kind": "header", "version": 1, "label": "crashed", "pid": 3},
            {
                "kind": "span",
                "name": "exec.task",
                "id": "s2",
                "parent": "s1",
                "duration_seconds": 0.5,
                "status": "ok",
            },
            {"kind": "event", "name": "exec.retry", "span": "s1"},
        ]
        text = summarize_trace(records)
        assert "1 span(s) opened but never closed" in text
        assert "s1" in text

    def test_closed_trace_reports_no_open_spans(self):
        records = [
            {"kind": "header", "version": 1, "pid": 1},
            {
                "kind": "span",
                "name": "root",
                "id": "s1",
                "parent": None,
                "duration_seconds": 1.0,
                "status": "ok",
            },
            {
                "kind": "span",
                "name": "child",
                "id": "s2",
                "parent": "s1",
                "duration_seconds": 0.5,
                "status": "ok",
            },
        ]
        text = summarize_trace(records)
        assert "never closed" not in text

    def test_last_metrics_record_wins(self):
        records = _records() + [
            {"kind": "metrics", "values": {"counters": {"final": 1.0}}}
        ]
        text = summarize_trace(records)
        assert "final" in text
        assert "search.leaves" not in text


class TestSummarizePath:
    def test_end_to_end_from_disk(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlTraceSink(path, label="e2e"), label="e2e")
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick")
        tracer.metrics.counter("ticks").add(1)
        tracer.finish()
        text = summarize_path(path)
        assert "# Trace summary — e2e" in text
        assert "outer" in text and "inner" in text and "tick" in text
        assert "ticks" in text

    def test_parallel_run_summarizes_like_the_serial_run(
        self, tmp_path, capsys
    ):
        argv = ["certify", "--k", "4", "--d", "2"]
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
        # the checkpoint sends the serial run through the executor too
        checkpoint = ["--checkpoint", str(tmp_path / "serial.ck")]
        assert main([*argv, *checkpoint, "--trace", str(serial)]) == 0
        assert main([*argv, "--jobs", "2", "--trace", str(parallel)]) == 0
        capsys.readouterr()
        rows = _counter_rows(summarize_path(parallel))
        assert rows == {
            name: f"{float(value):g}"
            for name, value in _final_counters(read_trace(parallel)).items()
        }
        # the workers' plan-cache lookups reach the parent's trace; a
        # lookup hits or misses by what the process ran before
        expected = _counter_rows(summarize_path(serial))
        lookups = ("plancache.hits", "plancache.misses")
        assert sum(float(rows.get(name, 0)) for name in lookups) == sum(
            float(expected.get(name, 0)) for name in lookups
        )
        for name in expected:
            if not name.startswith(("exec.", "plancache.")):
                assert rows[name] == expected[name], name


def _final_counters(records):
    metrics = [r for r in records if r.get("kind") == "metrics"]
    return metrics[-1]["values"]["counters"]


def _counter_rows(text):
    """``{name: value}`` from the summary's Counters table."""
    section = text.split("### Counters", 1)[1].split("###", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [line.split("|")[1:3] for line in lines[2:]]  # past the header
    return {name.strip(): value.strip() for name, value in rows}
