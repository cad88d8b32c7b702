"""Run the whole experiment suite and render a combined report.

The runner is partial-failure tolerant: an experiment that *raises* is
recorded as a failed :class:`~repro.experiments.base.ExperimentResult`
carrying the exception and traceback, and the sweep continues — one
broken experiment no longer hides every other result.
"""

from __future__ import annotations

import time
import traceback

from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    experiment_ids,
    get_experiment,
)
from repro.obs.tracer import current_tracer
from repro.util.tables import Table

__all__ = ["run_all", "render_results"]

#: traceback lines kept in a crashed experiment's findings.
_TRACEBACK_TAIL = 12


def _crashed_result(exp: Experiment, err: BaseException) -> ExperimentResult:
    """A failed result recording an experiment that raised."""
    result = ExperimentResult(
        experiment_id=exp.experiment_id, title=exp.title, passed=False
    )
    result.check(
        False,
        f"experiment raised {type(err).__name__}: {err}",
    )
    tail = traceback.format_exception(type(err), err, err.__traceback__)
    lines = "".join(tail).strip().splitlines()[-_TRACEBACK_TAIL:]
    for line in lines:
        result.note(f"traceback: {line.rstrip()}")
    return result


def run_all(quick: bool = False) -> dict[str, ExperimentResult]:
    """Execute every registered experiment; returns ``{id: result}``.

    An experiment that raises is recorded as a failed result (exception
    plus traceback tail in its findings) and the sweep continues.
    """
    results: dict[str, ExperimentResult] = {}
    tracer = current_tracer()
    for exp_id in experiment_ids():
        exp = get_experiment(exp_id)
        started = time.perf_counter()
        crashed = False
        with tracer.span(
            "experiment.run", experiment=exp_id, quick=quick
        ) as span:
            try:
                result = exp.run(quick=quick)
            except Exception as err:
                result = _crashed_result(exp, err)
                crashed = True
                span.annotate(crashed=type(err).__name__)
        result.elapsed_seconds = time.perf_counter() - started
        results[exp_id] = result
        if tracer.enabled:
            if crashed:
                tracer.metrics.counter("experiment.crashed").add(1)
            else:
                tracer.metrics.counter("experiment.completed").add(1)
    return results


def render_results(
    results: dict[str, ExperimentResult], quick: bool = False
) -> str:
    """Render already-computed results as one markdown report."""
    parts = ["# Reproduction experiment report", ""]
    passed = sum(1 for r in results.values() if r.passed)
    parts.append(
        f"{passed}/{len(results)} experiments passed "
        f"({'quick' if quick else 'full'} sweeps)."
    )
    parts.append("")
    for exp_id in experiment_ids():
        if exp_id in results:
            parts.append(results[exp_id].render())
            parts.append("")
    timing = _timing_table(results)
    if timing is not None:
        parts.append(timing.render())
        parts.append("")
    return "\n".join(parts)


def _timing_table(results: dict[str, ExperimentResult]) -> Table | None:
    """Per-experiment wall-time table (``None`` if nothing was timed)."""
    timed = [
        (exp_id, results[exp_id].elapsed_seconds)
        for exp_id in experiment_ids()
        if exp_id in results and results[exp_id].elapsed_seconds is not None
    ]
    if not timed:
        return None
    table = Table(["experiment", "seconds"], title="Suite timing")
    for exp_id, seconds in timed:
        table.add_row([exp_id, f"{seconds:.3f}"])
    table.add_row(["total", f"{sum(sec for _e, sec in timed):.3f}"])
    return table
