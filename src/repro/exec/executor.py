"""The resilient process-pool executor.

:class:`ResilientExecutor` runs a list of idempotent, picklable tasks
through a :class:`concurrent.futures.ProcessPoolExecutor` and absorbs the
failure modes a bare pool propagates raw:

* **one task per free worker** — a task is submitted only while fewer
  than ``jobs`` tasks are in flight, so a task in flight is a task that
  is running, and its age is its own run time;
* **worker crashes** (``BrokenProcessPool``) — the pool is torn down and
  rebuilt, and every running task is charged one attempt;
* **hangs and stragglers** — a heartbeat watchdog enforces a per-task
  deadline; overdue tasks are charged, innocent running tasks are
  re-queued without charge, and the stuck workers are terminated;
* **persistent faults** — a charged task re-queues at once; after the
  retry budget it degrades to in-process serial execution (*graceful
  degradation*) instead of failing an hours-long run, and the
  :class:`~repro.exec.report.ExecutionReport` counts every downgrade.

Tasks must be pure functions of their payloads (all call sites in this
package shard commutative accumulations), so re-execution after a lost
result is always safe.  A :class:`~repro.exec.journal.CheckpointJournal`
makes the whole fan-out restartable across *process* deaths too: completed
tasks are persisted as they finish and skipped on resume.

Deterministic fault injection for testing these paths lives in
:mod:`repro.exec.chaos`; it runs only inside pool workers, never on the
serial fallback, so a chaotic run must converge to the fault-free answer.

Under an enabled tracer, each pool task runs under a worker-local
in-memory tracer and returns its metrics snapshot with its result; the
parent folds the delivered snapshots into its own registry in task
order.  A crashed, hung or superseded attempt delivers nothing, so each
task's work is counted once.  Pool workers write no trace records: the
``exec.run``/``exec.task`` spans and the ``exec.*`` incident events are
the parent's.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.exec.chaos import ChaosPolicy
from repro.exec.journal import CheckpointJournal
from repro.exec.policy import ExecPolicy
from repro.exec.report import ExecutionReport
from repro.obs.tracer import NULL_TRACER, Tracer, current_tracer, using_tracer

__all__ = ["ExecTask", "ExecutionOutcome", "ResilientExecutor"]

#: watchdog polling interval in seconds: the granularity at which
#: deadlines are checked and completions collected.
_HEARTBEAT = 0.05


@dataclass(frozen=True)
class ExecTask:
    """One unit of restartable work: a stable id plus a picklable payload."""

    task_id: str
    payload: Any


@dataclass
class ExecutionOutcome:
    """Results keyed by task id, plus the run's structured report."""

    results: dict[str, Any]
    report: ExecutionReport

    def in_task_order(self, tasks: Sequence[ExecTask]) -> list[Any]:
        """Results ordered like ``tasks`` (deterministic merges)."""
        return [self.results[task.task_id] for task in tasks]


@dataclass
class _TaskState:
    """Parent-side mutable bookkeeping for one task."""

    task: ExecTask
    attempts: int = 0
    started: float = 0.0


# ----------------------------------------------------------- worker shims
#
# The pool executes `_resilient_call`, which consults the chaos schedule
# and then calls the user's worker function.  Both the user function and
# any initializer are installed once per worker by `_resilient_init`, so
# per-task pickles carry only (task_id, attempt, payload).  Under a traced
# parent the task runs under its own in-memory tracer, and the call
# returns that tracer's metrics snapshot beside the value.

_WORKER_STATE: (
    tuple[Callable[[Any], Any], ChaosPolicy | None, bool] | None
) = None


def _resilient_init(
    worker_fn: Callable[[Any], Any],
    initializer: Callable[..., None] | None,
    initargs: tuple[Any, ...],
    chaos: ChaosPolicy | None,
    traced: bool,
) -> None:
    global _WORKER_STATE
    if initializer is not None:
        initializer(*initargs)
    _WORKER_STATE = (worker_fn, chaos, traced)


def _resilient_call(
    packed: tuple[str, int, Any],
) -> tuple[Any, dict[str, Any] | None]:
    task_id, attempt, payload = packed
    assert _WORKER_STATE is not None
    worker_fn, chaos, traced = _WORKER_STATE
    if chaos is not None:
        chaos.inject(task_id, attempt)
    if not traced:
        return worker_fn(payload), None
    tracer = Tracer()
    with using_tracer(tracer):
        value = worker_fn(payload)
    return value, tracer.metrics.snapshot()


class ResilientExecutor:
    """Fault-tolerant fan-out of idempotent tasks over a process pool.

    Parameters
    ----------
    worker_fn:
        Module-level function mapping one task payload to its result;
        executed inside pool workers (and, for downgraded tasks, inline in
        the parent after running ``initializer`` there).
    jobs:
        Worker processes (default: all cores).  ``jobs <= 1`` executes
        the whole workload inline — no pool, no chaos.
    initializer, initargs:
        Optional per-worker setup (the classic pool-initializer pattern);
        also invoked lazily in the parent before any serial fallback.
    policy:
        The :class:`~repro.exec.policy.ExecPolicy` governing retries,
        deadlines and chaos; defaults to ``ExecPolicy()``.
    journal:
        Optional :class:`~repro.exec.journal.CheckpointJournal`; completed
        tasks found in it are returned without re-execution and new
        completions are appended as they land.
    label:
        Human-readable workload name used in reports and errors.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        jobs: int | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        policy: ExecPolicy | None = None,
        journal: CheckpointJournal | None = None,
        label: str = "exec",
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ExecutionError(f"jobs must be >= 1, got {jobs}")
        self.worker_fn = worker_fn
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy if policy is not None else ExecPolicy()
        self.journal = journal
        self.label = label
        self._pool: ProcessPoolExecutor | None = None
        self._parent_initialized = False
        self._tracer = NULL_TRACER

    # ----------------------------------------------------------------- run

    def run(self, tasks: Sequence[ExecTask]) -> ExecutionOutcome:
        """Execute every task; return all results plus the report.

        Raises
        ------
        ExecutionError
            If the workload is malformed (duplicate ids).
        Exception
            Any exception raised by ``worker_fn`` itself propagates
            unchanged — deterministic task errors are not retried (a
            wrong answer does not become right by repetition).
        """
        report = ExecutionReport(label=self.label, tasks=len(tasks))
        self._tracer = current_tracer()
        results: dict[str, Any] = {}
        snapshots: dict[str, dict[str, Any]] = {}
        seen: set[str] = set()
        for task in tasks:
            if task.task_id in seen:
                raise ExecutionError(
                    f"{self.label}: duplicate task id {task.task_id!r}"
                )
            seen.add(task.task_id)

        if self.journal is not None:
            for task in tasks:
                if task.task_id in self.journal:
                    results[task.task_id] = self.journal.completed[
                        task.task_id
                    ]
                    report.resumed += 1
                    self._tracer.event("exec.resume", task_id=task.task_id)

        todo = [
            _TaskState(task) for task in tasks if task.task_id not in results
        ]
        try:
            with self._tracer.span(
                "exec.run", label=self.label, tasks=len(tasks), jobs=self.jobs
            ):
                if todo:
                    if self.jobs <= 1:
                        for state in todo:
                            self._run_inline(state, results, report)
                    else:
                        self._run_pool(todo, results, report, snapshots)
        finally:
            self._shutdown_pool()
            report.finish()
            if self._tracer.enabled:
                # the pool tasks' metrics, folded in task order
                for task in tasks:
                    if task.task_id in snapshots:
                        self._tracer.metrics.merge(snapshots[task.task_id])
                self._add_report_counters(report)
        return ExecutionOutcome(results=results, report=report)

    # ------------------------------------------------------------ pool loop

    def _run_pool(
        self,
        todo: list[_TaskState],
        results: dict[str, Any],
        report: ExecutionReport,
        snapshots: dict[str, dict[str, Any]],
    ) -> None:
        retries, timeout = self.policy.retries, self.policy.task_timeout
        pending = deque(todo)
        running: dict[Future[Any], _TaskState] = {}

        while pending or running:
            # 1. hand queued tasks to free workers; a task past its retry
            #    budget degrades to the serial path instead.
            while pending and len(running) < self.jobs:
                state = pending.popleft()
                task_id = state.task.task_id
                if state.attempts > retries:
                    report.fallbacks += 1
                    self._tracer.event(
                        "exec.fallback",
                        task_id=task_id,
                        attempt=state.attempts,
                        detail="retry budget exhausted; degrading to "
                        "in-process serial execution",
                    )
                    self._run_inline(state, results, report)
                    continue
                if state.attempts > 0:
                    report.retries += 1
                    self._tracer.event(
                        "exec.retry", task_id=task_id, attempt=state.attempts
                    )
                report.attempts += 1
                try:
                    future = self._ensure_pool().submit(
                        _resilient_call,
                        (task_id, state.attempts, state.task.payload),
                    )
                except BrokenExecutor:
                    # the pool died between waits; charge nobody, rebuild.
                    self._note_broken_pool(report, "pool broke at submit")
                    self._abandon_pool(report)
                    pending.append(state)
                    pending.extend(running.values())
                    running.clear()
                    break
                state.started = time.monotonic()
                running[future] = state
            if not running:
                continue

            # 2. collect completions (bounded wait = watchdog heartbeat).
            done, _ = wait(
                running, timeout=_HEARTBEAT, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                state = running.pop(future)
                error = future.exception()
                if error is None:
                    value, snapshot = future.result()
                    self._complete(state, value, results, report)
                    if snapshot is not None:
                        snapshots[state.task.task_id] = snapshot
                    self._tracer.record_span(
                        "exec.task",
                        time.monotonic() - state.started,
                        task_id=state.task.task_id,
                        attempt=state.attempts,
                        mode="pool",
                    )
                elif isinstance(error, BrokenExecutor):
                    broken = True
                    self._charge(
                        state,
                        pending,
                        f"worker crashed ({type(error).__name__})",
                    )
                else:
                    # deterministic task failure: propagate unchanged.
                    raise error
            if broken:
                self._note_broken_pool(
                    report, "worker process died; re-queueing running tasks"
                )
                for state in running.values():
                    self._charge(state, pending, "pool broke mid-task")
                running.clear()
                self._abandon_pool(report)
                continue

            # 3. watchdog: enforce the per-task deadline.
            now = time.monotonic()
            if timeout is not None and any(
                now - state.started > timeout for state in running.values()
            ):
                for state in running.values():
                    if now - state.started > timeout:
                        report.timeouts += 1
                        self._tracer.event(
                            "exec.timeout",
                            task_id=state.task.task_id,
                            attempt=state.attempts,
                            detail=f"exceeded the {timeout:g}s deadline",
                        )
                        self._charge(state, pending, "deadline")
                    else:
                        # an innocent victim of the pool teardown:
                        # re-queued, no attempt charged.
                        pending.append(state)
                running.clear()
                self._abandon_pool(report)

    # -------------------------------------------------------------- helpers

    def _charge(
        self, state: _TaskState, pending: deque[_TaskState], reason: str
    ) -> None:
        """Charge one failed attempt and re-queue the task at once."""
        state.attempts += 1
        pending.append(state)
        self._tracer.event(
            "exec.attempt_failed",
            task_id=state.task.task_id,
            attempt=state.attempts,
            detail=reason,
        )

    def _add_report_counters(self, report: ExecutionReport) -> None:
        """Push the run's headline counters into the tracer's registry."""
        metrics = self._tracer.metrics
        metrics.counter("exec.tasks").add(report.tasks)
        metrics.counter("exec.completed").add(report.completed)
        metrics.counter("exec.resumed").add(report.resumed)
        metrics.counter("exec.retries").add(report.retries)
        metrics.counter("exec.timeouts").add(report.timeouts)
        metrics.counter("exec.broken_pools").add(report.broken_pools)
        metrics.counter("exec.pool_rebuilds").add(report.pool_rebuilds)
        metrics.counter("exec.fallbacks").add(report.fallbacks)

    def _note_broken_pool(self, report: ExecutionReport, detail: str) -> None:
        report.broken_pools += 1
        self._tracer.event("exec.broken_pool", detail=detail)

    def _complete(
        self,
        state: _TaskState,
        value: Any,
        results: dict[str, Any],
        report: ExecutionReport,
    ) -> None:
        task_id = state.task.task_id
        if task_id in results:  # pragma: no cover - lost-future double run
            return
        results[task_id] = value
        report.completed += 1
        if self.journal is not None:
            self.journal.record(task_id, value)

    def _run_inline(
        self,
        state: _TaskState,
        results: dict[str, Any],
        report: ExecutionReport,
    ) -> None:
        """Execute one task in-process (serial path / graceful degradation)."""
        if self.initializer is not None and not self._parent_initialized:
            self.initializer(*self.initargs)
            self._parent_initialized = True
        with self._tracer.span(
            "exec.task",
            task_id=state.task.task_id,
            attempt=state.attempts,
            mode="inline",
        ):
            value = self.worker_fn(state.task.payload)
        self._complete(state, value, results, report)

    # ------------------------------------------------------ pool lifecycle

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(  # repro: noqa(RL009) - the facade itself
                max_workers=self.jobs,
                initializer=_resilient_init,
                initargs=(
                    self.worker_fn,
                    self.initializer,
                    self.initargs,
                    self.policy.chaos,
                    self._tracer.enabled,
                ),
            )
        return self._pool

    def _abandon_pool(self, report: ExecutionReport) -> None:
        """Tear down a broken/stuck pool; the next submit rebuilds it."""
        if self._pool is None:
            return
        self._kill_pool()
        report.pool_rebuilds += 1
        self._tracer.event("exec.rebuild", detail="process pool torn down")

    def _kill_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # ProcessPoolExecutor has no public "terminate workers" API, and a
        # hung worker would block shutdown(wait=True) forever — terminate
        # the worker processes directly, then release the pool's plumbing.
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=5.0)

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return (
            f"ResilientExecutor(label={self.label!r}, jobs={self.jobs}, "
            f"retries={self.policy.retries})"
        )
