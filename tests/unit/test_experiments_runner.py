"""Tests for repro.experiments.runner — partial failure and timing.

The suite swaps a tiny synthetic registry in for the real one so the
runner's failure tolerance and timing table can be exercised in
milliseconds.
"""

from __future__ import annotations

import pytest

from repro.experiments import base
from repro.experiments.runner import render_results, run_all
from repro.util.tables import Table


def _passing(quick):
    result = base.ExperimentResult("EXP-2", "passes", passed=True)
    result.check(True, "claim holds")
    table = Table(["k", "E_max"], title="synthetic")
    table.add_row([4, 2.0])
    result.tables.append(table)
    return result


def _raising(quick):
    raise RuntimeError("synthetic experiment crash")


@pytest.fixture
def synthetic_registry(monkeypatch):
    registry = {
        "EXP-1": base.Experiment("EXP-1", "crashes", "none", _raising),
        "EXP-2": base.Experiment("EXP-2", "passes", "none", _passing),
    }
    monkeypatch.setattr(base, "_REGISTRY", registry)
    return registry


class TestPartialFailure:
    def test_crash_recorded_and_sweep_continues(self, synthetic_registry):
        results = run_all()
        assert set(results) == {"EXP-1", "EXP-2"}
        assert results["EXP-2"].passed
        crashed = results["EXP-1"]
        assert not crashed.passed
        assert any(
            "RuntimeError: synthetic experiment crash" in f
            for f in crashed.findings
        )
        assert any(f.startswith("[note] traceback:") for f in crashed.findings)

    def test_render_counts_crashed_as_failed(self, synthetic_registry):
        text = render_results(run_all())
        assert "1/2 experiments passed" in text
        assert "Verdict: FAIL" in text and "Verdict: PASS" in text


class TestSuiteTiming:
    def test_run_all_stamps_elapsed_seconds(self, synthetic_registry):
        results = run_all()
        for result in results.values():
            assert result.elapsed_seconds is not None
            assert result.elapsed_seconds >= 0.0

    def test_render_includes_the_timing_table(self, synthetic_registry):
        text = render_results(run_all())
        assert "Suite timing" in text
        assert "total" in text

    def test_untimed_results_render_without_the_table(self):
        result = base.ExperimentResult("EXP-2", "handmade", passed=True)
        text = render_results({"EXP-2": result})
        assert "Suite timing" not in text

    def test_traced_suite_emits_experiment_spans(self, synthetic_registry):
        from repro.obs import Tracer, using_tracer

        tracer = Tracer()
        with using_tracer(tracer):
            run_all()
        spans = {span.name: span for span in tracer.finished}
        assert set(spans) == {"experiment.run"}
        crashed = [
            span
            for span in tracer.finished
            if span.attributes.get("crashed") == "RuntimeError"
        ]
        assert len(crashed) == 1
