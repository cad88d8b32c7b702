"""Tests for repro.obs.metrics — instruments, snapshots, ordered merges."""

from __future__ import annotations

import pytest

from repro.exec import ExecPolicy, ExecTask, ResilientExecutor
from repro.obs import NULL_METRICS, Metrics
from repro.obs.metrics import _NULL_INSTRUMENT


class TestCounter:
    def test_accumulates(self):
        counter = Metrics().counter("c")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Metrics().counter("c").add(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Metrics().gauge("g")
        gauge.set(1.0)
        gauge.set(7.0)
        assert gauge.value == 7.0
        assert gauge.updates == 2


class TestHistogram:
    def test_summary_stats(self):
        hist = Metrics().histogram("h")
        for value in (0.5, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 7.5
        assert hist.min == 0.5 and hist.max == 4.0
        assert hist.mean == 2.5

    def test_base2_buckets(self):
        hist = Metrics().histogram("h")
        hist.observe(0.0)  # dedicated zero bucket
        hist.observe(0.75)  # (2^-1, 2^0] -> "0"
        hist.observe(3.0)  # (2, 4]      -> "2"
        hist.observe(4.0)  # (2, 4]      -> "2"
        assert hist.buckets == {"zero": 1, "0": 1, "2": 2}

    def test_empty_mean_is_none(self):
        assert Metrics().histogram("h").mean is None

    def test_counted_observation_equals_repeated_ones(self):
        one_by_one, folded = Metrics(), Metrics()
        for value in (3, 1, 3, 8, 3, 1):
            one_by_one.histogram("h").observe(value)
        for value, count in ((8, 1), (1, 2), (3, 3)):
            folded.histogram("h").observe(value, count=count)
        assert folded.snapshot() == one_by_one.snapshot()


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        metrics = Metrics()
        assert metrics.counter("x") is metrics.counter("x")
        assert metrics.gauge("y") is metrics.gauge("y")
        assert metrics.histogram("z") is metrics.histogram("z")

    def test_snapshot_is_sorted_and_json_compatible(self):
        import json

        metrics = Metrics()
        metrics.counter("b").add(2)
        metrics.counter("a").add(1)
        metrics.gauge("rate").set(10.0)
        metrics.gauge("silent")  # never set: omitted from the snapshot
        metrics.histogram("lat").observe(0.25)
        snap = metrics.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert "silent" not in snap["gauges"]
        json.dumps(snap)  # must be JSON-compatible

    def test_clear_empties_everything(self):
        metrics = Metrics()
        metrics.counter("a").add(1)
        metrics.clear()
        assert metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestMerge:
    def test_counters_and_histograms_add_gauges_overwrite(self):
        left, right = Metrics(), Metrics()
        for registry, scale in ((left, 1.0), (right, 2.0)):
            registry.counter("n").add(scale)
            registry.gauge("rate").set(scale)
            registry.histogram("lat").observe(scale)
        left.merge(right.snapshot())
        assert left.counter("n").value == 3.0
        assert left.gauge("rate").value == 2.0
        hist = left.histogram("lat")
        assert hist.count == 2 and hist.min == 1.0 and hist.max == 2.0

    def test_merge_into_empty_reproduces_snapshot(self):
        source = Metrics()
        source.counter("c").add(4)
        source.histogram("h").observe(0.0)
        source.histogram("h").observe(9.0)
        target = Metrics()
        target.merge(source.snapshot())
        assert target.snapshot() == source.snapshot()


def _observe_payload(payload):
    """Worker: build a private registry, return its snapshot."""
    metrics = Metrics()
    metrics.counter("pairs").add(payload["pairs"])
    metrics.gauge("last_k").set(payload["k"])
    metrics.histogram("seconds").observe(payload["seconds"])
    return metrics.snapshot()


class TestCrossProcessMerge:
    def test_pool_snapshots_merge_deterministically_in_task_order(self):
        """Task-order merge == serial merge, however the pool scheduled it."""
        payloads = [
            {"pairs": 10 * i, "k": i, "seconds": 0.1 * i} for i in range(8)
        ]
        tasks = [
            ExecTask(f"m-{i}", payload) for i, payload in enumerate(payloads)
        ]
        executor = ResilientExecutor(
            _observe_payload,
            jobs=4,
            policy=ExecPolicy(retries=1),
            label="metrics-merge",
        )
        outcome = executor.run(tasks)

        merged = Metrics()
        for snap in outcome.in_task_order(tasks):
            merged.merge(snap)

        expected = Metrics()
        for payload in payloads:
            expected.merge(_observe_payload(payload))

        # identical snapshots — including the last-write-wins gauge, which
        # is only deterministic because the merge is in task order.
        assert merged.snapshot() == expected.snapshot()
        assert merged.gauge("last_k").value == payloads[-1]["k"]


class TestNullMetrics:
    def test_instruments_are_shared_noops(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.histogram("b")
        NULL_METRICS.counter("a").add(5)
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_merge_is_a_noop(self):
        real = Metrics()
        real.counter("c").add(1)
        NULL_METRICS.merge(real.snapshot())
        assert NULL_METRICS.snapshot()["counters"] == {}

    def test_null_instrument_is_the_shared_singleton(self):
        assert NULL_METRICS.counter("anything") is _NULL_INSTRUMENT
