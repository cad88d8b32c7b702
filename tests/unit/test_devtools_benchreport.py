"""Tests for repro.devtools.benchreport — the bench observatory."""

from __future__ import annotations

import json

import pytest

from repro.devtools.benchreport import (
    TRAJECTORY_SCHEMA_VERSION,
    build_trajectory,
    check_trajectory,
    extract_metrics,
    run_report,
)


def _write(path, data):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


@pytest.fixture()
def bench_dir(tmp_path):
    _write(
        tmp_path / "BENCH_batch.json",
        {
            "min_speedup": 2.0,
            "min_hit_rate": 0.5,
            "emax_values": [8.0],
            "measured": {
                "speedup": 5.0,
                "hit_rate": 0.9,
                "sequential_ms": 100.0,
                "batched_ms": 20.0,
            },
        },
    )
    _write(
        tmp_path / "BENCH_custom.json",
        {"latency_ms": 4.5, "nested": {"rate": 2.0}, "flag": True},
    )
    return tmp_path


class TestExtractMetrics:
    def test_curated_extractor_produces_gated_metrics(self, bench_dir):
        data = json.loads(
            (bench_dir / "BENCH_batch.json").read_text(encoding="utf-8")
        )
        metrics = {m[0]: m for m in extract_metrics("BENCH_batch.json", data)}
        name, value, direction, threshold = metrics["batch.speedup"]
        assert value == 5.0
        assert direction == "higher"
        assert threshold == 2.0

    def test_certify_seconds_gated_and_counts_exact(self):
        data = {
            "max_seconds": {"T6": 1.0},
            "cases": {
                "T6": {"seconds": 0.5, "counts": {"leaf_orbits": 93}},
                "T7": {"seconds": 3.4, "counts": {"leaf_orbits": 167}},
            },
        }
        metrics = {m[0]: m for m in extract_metrics("BENCH_certify.json", data)}
        assert metrics["certify.T6.seconds"] == ("certify.T6.seconds", 0.5, "lower", 1.0)
        assert metrics["certify.T7.seconds"][3] is None  # the frontier: tracked only
        assert metrics["certify.T7.leaf_orbits"][1:3] == (167, "exact")

    def test_unknown_file_falls_back_to_numeric_leaves(self, bench_dir):
        data = json.loads(
            (bench_dir / "BENCH_custom.json").read_text(encoding="utf-8")
        )
        metrics = {m[0]: m for m in extract_metrics("BENCH_custom.json", data)}
        assert metrics["custom.latency_ms"][1] == 4.5
        assert metrics["custom.nested.rate"][1] == 2.0
        # informational: no threshold, and booleans are not numbers
        assert metrics["custom.latency_ms"][3] is None
        assert "custom.flag" not in metrics


class TestBuildTrajectory:
    def test_schema_and_sources(self, bench_dir):
        trajectory = build_trajectory(bench_dir, now=100.0)
        assert trajectory["schema_version"] == TRAJECTORY_SCHEMA_VERSION
        assert trajectory["sources"] == [
            "BENCH_batch.json",
            "BENCH_custom.json",
        ]
        assert "batch.speedup" in trajectory["metrics"]

    def test_unchanged_values_append_no_points(self, bench_dir):
        first = build_trajectory(bench_dir, now=100.0)
        second = build_trajectory(bench_dir, previous=first, now=200.0)
        assert second == first

    def test_changed_value_appends_a_point(self, bench_dir):
        first = build_trajectory(bench_dir, now=100.0)
        data = json.loads(
            (bench_dir / "BENCH_custom.json").read_text(encoding="utf-8")
        )
        data["latency_ms"] = 9.9
        _write(bench_dir / "BENCH_custom.json", data)
        second = build_trajectory(bench_dir, previous=first, now=200.0)
        series = second["metrics"]["custom.latency_ms"]["series"]
        assert [point["value"] for point in series] == [4.5, 9.9]
        assert [point["recorded_unix"] for point in series] == [100.0, 200.0]

    def test_vanished_source_retires_its_metrics(self, bench_dir):
        first = build_trajectory(bench_dir, now=100.0)
        (bench_dir / "BENCH_custom.json").unlink()
        second = build_trajectory(bench_dir, previous=first, now=200.0)
        assert "custom.latency_ms" not in second["metrics"]
        assert "custom.latency_ms" in second["retired"]


class TestCheckTrajectory:
    def test_clean_pass(self, bench_dir):
        trajectory = build_trajectory(bench_dir, now=100.0)
        assert check_trajectory(trajectory, bench_dir) == []

    def test_threshold_violation(self, bench_dir):
        trajectory = build_trajectory(bench_dir, now=100.0)
        data = json.loads(
            (bench_dir / "BENCH_batch.json").read_text(encoding="utf-8")
        )
        data["measured"]["speedup"] = 1.5  # below the 2.0 pin
        _write(bench_dir / "BENCH_batch.json", data)
        violations = check_trajectory(trajectory, bench_dir)
        assert any("batch.speedup" in v for v in violations)

    def test_exact_pin_drift(self, bench_dir):
        trajectory = build_trajectory(bench_dir, now=100.0)
        data = json.loads(
            (bench_dir / "BENCH_batch.json").read_text(encoding="utf-8")
        )
        data["emax_values"] = [9.0]
        _write(bench_dir / "BENCH_batch.json", data)
        violations = check_trajectory(trajectory, bench_dir)
        assert any("exact pin drifted" in v for v in violations)

    def test_missing_baseline_is_a_violation(self, bench_dir):
        trajectory = build_trajectory(bench_dir, now=100.0)
        (bench_dir / "BENCH_custom.json").unlink()
        violations = check_trajectory(trajectory, bench_dir)
        assert any("baseline file missing" in v for v in violations)

    def test_wrong_schema_version_fails_closed(self, bench_dir):
        trajectory = build_trajectory(bench_dir, now=100.0)
        trajectory["schema_version"] = 99
        violations = check_trajectory(trajectory, bench_dir)
        assert len(violations) == 1
        assert "schema_version" in violations[0]


class TestRunReport:
    def test_report_writes_trajectory_and_passes(self, bench_dir, capsys):
        assert run_report(bench_dir) == 0
        out_path = bench_dir / "BENCH_trajectory.json"
        assert out_path.exists()
        trajectory = json.loads(out_path.read_text(encoding="utf-8"))
        assert trajectory["schema_version"] == TRAJECTORY_SCHEMA_VERSION
        assert "metrics across" in capsys.readouterr().out

    def test_check_mode_requires_a_trajectory(self, bench_dir, capsys):
        assert run_report(bench_dir, check=True) == 1
        assert "no trajectory" in capsys.readouterr().out

    def test_check_mode_passes_then_fails_on_regression(self, bench_dir, capsys):
        assert run_report(bench_dir) == 0
        assert run_report(bench_dir, check=True) == 0
        assert "bench trajectory OK" in capsys.readouterr().out
        data = json.loads(
            (bench_dir / "BENCH_batch.json").read_text(encoding="utf-8")
        )
        data["measured"]["hit_rate"] = 0.1
        _write(bench_dir / "BENCH_batch.json", data)
        assert run_report(bench_dir, check=True) == 1
        assert "regression" in capsys.readouterr().out

    def test_regeneration_is_stable_on_disk(self, bench_dir):
        assert run_report(bench_dir) == 0
        out_path = bench_dir / "BENCH_trajectory.json"
        first = out_path.read_text(encoding="utf-8")
        assert run_report(bench_dir) == 0
        assert out_path.read_text(encoding="utf-8") == first

    def test_custom_output_path(self, bench_dir, tmp_path):
        target = tmp_path / "elsewhere" / "traj.json"
        assert run_report(bench_dir, output=target) == 0
        assert target.exists()
