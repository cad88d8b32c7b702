"""The per-claim experiment suite (EXP-1 … EXP-13, see DESIGN.md §4).

Each experiment reproduces one quantitative claim of the paper — a bound,
a closed form, or a qualitative shape — as a paper-vs-measured table plus a
pass/fail verdict.  The benchmark harness in ``benchmarks/`` runs these and
prints the tables; ``EXPERIMENTS.md`` records the outcomes.

Usage::

    from repro.experiments import get_experiment, experiment_ids, run_all

    result = get_experiment("EXP-7").run()
    print(result.render())
"""

from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    get_experiment,
    experiment_ids,
    register,
)

# importing the modules registers their experiments
from repro.experiments import (  # noqa: F401  (import for side effects)
    exp_fully_populated,
    exp_figure1,
    exp_lower_bounds,
    exp_bisection,
    exp_odr,
    exp_udr,
    exp_fault_tolerance,
    exp_sim_validation,
    exp_optimality,
    exp_extensions,
    exp_search_schedule,
    exp_ablations,
    exp_mixedradix,
)
from repro.experiments.runner import run_all

__all__ = [
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "experiment_ids",
    "register",
    "run_all",
]
