"""Tests for repro.obs.export — snapshot journal and sampler."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsSnapshotWriter, ResourceSampler
from repro.obs.export import pump, set_pump
from repro.obs.metrics import Metrics


def _registry() -> Metrics:
    metrics = Metrics()
    metrics.counter("exec.tasks").add(16)
    metrics.gauge("engine.fft.snap_drift").set(1.5e-11)
    hist = metrics.histogram("exec.task_seconds")
    hist.observe(0.0)
    hist.observe(0.3)
    hist.observe(0.7)
    hist.observe(3.0)
    return metrics


class TestMetricsSnapshotWriter:
    def test_journal_lines_are_snapshots(self, tmp_path):
        metrics = _registry()
        path = tmp_path / "metrics.jsonl"
        with MetricsSnapshotWriter(path, metrics, interval_seconds=0.0) as w:
            w.write()
            metrics.counter("exec.tasks").add(1)
            w.write()
        lines = path.read_text().strip().splitlines()
        # two explicit writes plus the close() flush
        assert len(lines) == 3
        first, second = json.loads(lines[0]), json.loads(lines[1])
        assert first["kind"] == "metrics"
        assert first["values"]["counters"]["exec.tasks"] == 16.0
        assert second["values"]["counters"]["exec.tasks"] == 17.0

    def test_maybe_rate_limits(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsSnapshotWriter(path, _registry(), interval_seconds=3600)
        assert writer.maybe() is True
        assert writer.maybe() is False  # within the interval
        writer.close()

    def test_close_is_idempotent(self, tmp_path):
        writer = MetricsSnapshotWriter(tmp_path / "m.jsonl", _registry())
        writer.close()
        writer.close()
        assert writer.written == 1


class TestResourceSampler:
    def test_sample_feeds_gauges(self):
        metrics = Metrics()
        sampler = ResourceSampler(metrics)
        if not sampler.available:
            pytest.skip("no procfs on this host")
        readings = sampler.sample()
        assert readings is not None
        assert readings["rss_bytes"] > 0
        assert readings["num_threads"] >= 1
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["proc.rss_bytes"] == readings["rss_bytes"]
        assert sampler.samples == 1

    def test_unavailable_host_is_noop(self, monkeypatch):
        metrics = Metrics()
        sampler = ResourceSampler(metrics)
        sampler.available = False
        assert sampler.sample() is None
        assert metrics.snapshot()["gauges"] == {}


class TestAmbientPump:
    def teardown_method(self):
        set_pump(None)

    def test_pump_without_writer_is_noop(self):
        set_pump(None)
        assert pump() is False

    def test_pump_writes_when_due(self, tmp_path):
        metrics = _registry()
        writer = MetricsSnapshotWriter(
            tmp_path / "m.jsonl", metrics, interval_seconds=0.0
        )
        set_pump(writer)
        assert pump() is True

    def test_pump_respects_interval(self, tmp_path):
        writer = MetricsSnapshotWriter(
            tmp_path / "m.jsonl", _registry(), interval_seconds=3600
        )
        set_pump(writer)
        assert pump() is True
        assert pump() is False

    def test_pump_samples_before_writing(self, tmp_path):
        metrics = Metrics()
        sampler = ResourceSampler(metrics)
        if not sampler.available:
            pytest.skip("no procfs on this host")
        writer = MetricsSnapshotWriter(
            tmp_path / "m.jsonl", metrics, interval_seconds=0.0
        )
        set_pump(writer, sampler=sampler)
        assert pump() is True
        writer.close()
        lines = (tmp_path / "m.jsonl").read_text().strip().splitlines()
        gauges = json.loads(lines[0])["values"]["gauges"]
        assert gauges["proc.rss_bytes"] > 0
