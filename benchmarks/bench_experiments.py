"""Benchmark every registered experiment: EXP-1 … EXP-23.

Each case regenerates one experiment's paper-vs-measured table (see
EXPERIMENTS.md), times the full reproduction sweep, and asserts its
checks pass.  Select experiments with ``-k``::

    pytest benchmarks/bench_experiments.py --benchmark-only -k "EXP-22"
"""

import pytest

from repro.experiments import experiment_ids

#: timed rounds per experiment; the slowest sweeps run once.
ROUNDS = {
    "EXP-1": 3,
    "EXP-2": 3,
    "EXP-3": 2,
    "EXP-4": 2,
    "EXP-5": 2,
    "EXP-6": 3,
    "EXP-7": 2,
    "EXP-8": 2,
    "EXP-9": 2,
    "EXP-10": 2,
    "EXP-11": 1,
    "EXP-12": 1,
    "EXP-13": 2,
    "EXP-14": 2,
    "EXP-15": 2,
    "EXP-16": 2,
    "EXP-17": 2,
    "EXP-18": 1,
    "EXP-19": 1,
    "EXP-20": 1,
    "EXP-21": 2,
    "EXP-22": 1,
    "EXP-23": 2,
}


@pytest.mark.parametrize(
    "exp_id",
    [
        pytest.param(exp_id, marks=pytest.mark.benchmark(group=exp_id))
        for exp_id in experiment_ids()
    ],
)
def test_experiment(run_experiment, exp_id):
    run_experiment(exp_id, quick=False, rounds=ROUNDS[exp_id])
