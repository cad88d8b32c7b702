"""Run the whole experiment suite and render a combined report.

The suite's load computations all flow through
:func:`repro.core.analysis.compute_loads` and therefore honour the
process-wide default :class:`~repro.load.engine.LoadEngine`; passing
``engine=`` here pins a specific backend (e.g. ``"reference"``) for the
duration of the run.

The runner is partial-failure tolerant: an experiment that *raises* is
recorded as a failed :class:`~repro.experiments.base.ExperimentResult`
carrying the exception and traceback, and the sweep continues — one
broken experiment no longer hides every other result.  With a
``checkpoint`` journal the sweep is also restartable: completed
experiments are persisted as they finish and skipped on ``resume``.
"""

from __future__ import annotations

import time
import traceback
from typing import Any

from repro.errors import InvalidParameterError
from repro.exec import CheckpointJournal
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    experiment_ids,
    get_experiment,
)
from repro.load.engine import using_engine
from repro.obs.export import pump
from repro.obs.tracer import current_tracer
from repro.util.tables import Table

__all__ = ["run_all", "render_results", "render_all"]

#: traceback lines kept in a crashed experiment's findings.
_TRACEBACK_TAIL = 12


class _PreRenderedTable:
    """A journal-restored table: renders the stored text verbatim."""

    def __init__(self, text: str):
        self._text = text

    def render(self) -> str:
        """The table text exactly as originally rendered."""
        return self._text


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


def _encode_result(result: ExperimentResult) -> dict[str, Any]:
    """Journal form of one result (tables stored pre-rendered)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "passed": bool(result.passed),
        "findings": list(result.findings),
        "tables": [table.render() for table in result.tables],
        "elapsed_seconds": result.elapsed_seconds,
    }


def _decode_result(data: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`_encode_result`."""
    elapsed = data.get("elapsed_seconds")
    result = ExperimentResult(
        experiment_id=str(data["experiment_id"]),
        title=str(data["title"]),
        passed=bool(data["passed"]),
        elapsed_seconds=None if elapsed is None else float(elapsed),
    )
    result.findings = [str(finding) for finding in data["findings"]]
    result.tables = [_PreRenderedTable(str(text)) for text in data["tables"]]
    return result


def run_all(
    quick: bool = False,
    engine=None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[str, ExperimentResult]:
    """Execute every registered experiment; returns ``{id: result}``.

    ``engine`` is a :class:`~repro.load.engine.LoadEngine`, a backend
    name, or ``None`` to keep the current default engine.

    An experiment that raises is recorded as a failed result (exception
    plus traceback tail in its findings) and the sweep continues.
    ``checkpoint`` journals each completed experiment to a JSONL file;
    ``resume`` restores journaled results instead of re-running them (the
    journal's ``quick`` flag must match).
    """
    if resume and checkpoint is None:
        raise InvalidParameterError("resume=True requires a checkpoint path")
    journal = (
        CheckpointJournal(
            checkpoint,
            fingerprint={"workload": "experiments", "quick": bool(quick)},
            resume=resume,
            encode=_encode_result,
            decode=_decode_result,
        )
        if checkpoint is not None
        else None
    )
    results: dict[str, ExperimentResult] = {}
    tracer = current_tracer()
    try:
        with using_engine(engine):
            for exp_id in experiment_ids():
                if journal is not None and exp_id in journal:
                    results[exp_id] = journal.completed[exp_id]
                    continue
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
                pump()
                if journal is not None:
                    journal.record(exp_id, result)
    finally:
        if journal is not None:
            journal.close()
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


def render_all(quick: bool = False, engine=None) -> str:
    """Run everything and produce one markdown report."""
    return render_results(run_all(quick=quick, engine=engine), quick=quick)
