"""Shared helper for the experiment benchmarks.

``bench_experiments.py`` runs each registered experiment under
pytest-benchmark through the ``run_experiment`` fixture, which asserts
its paper-vs-measured checks pass and prints the result tables (the same
rows recorded in EXPERIMENTS.md).

Run everything with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment


def run_experiment_benchmark(
    benchmark, capsys, exp_id: str, quick: bool = False, rounds: int = 1
):
    """Benchmark one experiment and print its report."""
    exp = get_experiment(exp_id)
    result = benchmark.pedantic(
        lambda: exp.run(quick=quick), rounds=rounds, iterations=1
    )
    with capsys.disabled():
        print()
        print(result.render())
    assert result.passed, [
        f for f in result.findings if f.startswith("[FAIL]")
    ]
    return result


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Fixture binding the helper to this test's benchmark/capsys."""

    def _run(exp_id: str, quick: bool = False, rounds: int = 1):
        return run_experiment_benchmark(
            benchmark, capsys, exp_id, quick=quick, rounds=rounds
        )

    return _run
