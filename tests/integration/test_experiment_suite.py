"""Integration: the whole experiment suite passes in quick mode."""

import pytest

from repro.experiments import experiment_ids, get_experiment, run_all
from repro.experiments.runner import render_results


class TestSuite:
    def test_all_ids_present(self):
        assert experiment_ids() == [f"EXP-{i}" for i in range(1, 24)]

    @pytest.mark.parametrize("exp_id", [f"EXP-{i}" for i in range(1, 24)])
    def test_each_experiment_passes_quick(self, exp_id):
        result = get_experiment(exp_id).run(quick=True)
        failures = [f for f in result.findings if f.startswith("[FAIL]")]
        assert result.passed, f"{exp_id} failed: {failures}"

    def test_run_all_returns_everything(self):
        results = run_all(quick=True)
        assert set(results) == set(experiment_ids())
        assert all(r.passed for r in results.values())

    def test_render_all_is_markdown(self):
        text = render_results(run_all(quick=True))
        assert text.startswith("# Reproduction experiment report")
        assert "23/23 experiments passed" in text
        assert "EXP-7" in text
