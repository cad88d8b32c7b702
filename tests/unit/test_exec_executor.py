"""Tests for repro.exec.executor — retries, deadlines, fallback, reports.

Pool-driving tests use tiny workloads and deterministic chaos so the
whole file stays fast on a single-core runner; the heavyweight
end-to-end drills live in ``tests/integration/test_exec_resilience.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    ChaosPolicy,
    CheckpointJournal,
    ExecPolicy,
    ExecTask,
    ExecutionReport,
    ResilientExecutor,
)
from repro.obs import Tracer, using_tracer

#: fault-free policy for pool tests.
FAST = ExecPolicy(retries=2)

_INIT_OFFSET = 0


def _square(x):
    return x * x


def _offset_square(x):
    return x * x + _INIT_OFFSET


def _set_offset(value):
    global _INIT_OFFSET
    _INIT_OFFSET = value


def _boom(x):
    raise ValueError(f"deterministic failure for {x}")


def _slow_square(x):
    time.sleep(0.05)
    return x * x


def _tasks(n):
    return [ExecTask(f"t-{i}", i) for i in range(n)]


class _ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _traced_run(executor, tasks):
    """``executor.run(tasks)`` under a tracer; the outcome and its events."""
    sink = _ListSink()
    with using_tracer(Tracer(sink=sink)):
        outcome = executor.run(tasks)
    events = [r for r in sink.records if r["kind"] == "event"]
    return outcome, events


def _task_ids(events, name):
    return {e["attributes"]["task_id"] for e in events if e["name"] == name}


class TestInlinePath:
    def test_jobs_one_runs_inline(self):
        executor = ResilientExecutor(_square, jobs=1, policy=FAST)
        tasks = _tasks(5)
        outcome = executor.run(tasks)
        assert outcome.in_task_order(tasks) == [0, 1, 4, 9, 16]
        assert outcome.report.completed == 5
        assert outcome.report.attempts == 0  # no pool attempts charged

    def test_initializer_runs_in_parent(self):
        executor = ResilientExecutor(
            _offset_square,
            jobs=1,
            initializer=_set_offset,
            initargs=(100,),
            policy=FAST,
        )
        try:
            outcome = executor.run(_tasks(3))
            assert outcome.results == {"t-0": 100, "t-1": 101, "t-2": 104}
        finally:
            _set_offset(0)

    def test_worker_error_propagates_unchanged(self):
        executor = ResilientExecutor(_boom, jobs=1, policy=FAST)
        with pytest.raises(ValueError, match="deterministic failure"):
            executor.run(_tasks(1))

    def test_inline_path_ignores_chaos(self):
        # chaos is a pool-only concern: jobs=1 must never inject faults.
        policy = ExecPolicy(chaos=ChaosPolicy(seed=1, crash_fraction=1.0))
        executor = ResilientExecutor(_square, jobs=1, policy=policy)
        assert executor.run(_tasks(3)).results["t-2"] == 4


class TestValidation:
    def test_duplicate_task_ids_rejected(self):
        executor = ResilientExecutor(_square, jobs=1, policy=FAST)
        with pytest.raises(ExecutionError, match="duplicate task id"):
            executor.run([ExecTask("t-0", 1), ExecTask("t-0", 2)])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExecutionError, match="jobs must be >= 1"):
            ResilientExecutor(_square, jobs=0)

    def test_empty_workload(self):
        outcome = ResilientExecutor(_square, jobs=1, policy=FAST).run([])
        assert outcome.results == {}
        assert outcome.report.tasks == 0


class TestJournalIntegration:
    def test_resumed_tasks_skip_execution(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fingerprint = {"workload": "unit"}
        with CheckpointJournal(path, fingerprint=fingerprint) as j:
            j.record("t-1", 999)  # pretend a prior run finished t-1
        journal = CheckpointJournal(path, fingerprint=fingerprint, resume=True)
        try:
            executor = ResilientExecutor(
                _square, jobs=1, policy=FAST, journal=journal
            )
            outcome, events = _traced_run(executor, _tasks(3))
        finally:
            journal.close()
        assert outcome.results == {"t-0": 0, "t-1": 999, "t-2": 4}
        assert outcome.report.resumed == 1
        resumes = [e for e in events if e["name"] == "exec.resume"]
        assert [e["attributes"]["task_id"] for e in resumes] == ["t-1"]

    def test_completions_are_journaled(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fingerprint = {"workload": "unit"}
        journal = CheckpointJournal(path, fingerprint=fingerprint)
        try:
            ResilientExecutor(
                _square, jobs=1, policy=FAST, journal=journal
            ).run(_tasks(3))
        finally:
            journal.close()
        with CheckpointJournal(
            path, fingerprint=fingerprint, resume=True
        ) as j:
            assert j.completed == {"t-0": 0, "t-1": 1, "t-2": 4}


class TestPoolPath:
    def test_pool_results_match_inline(self):
        tasks = _tasks(6)
        pool = ResilientExecutor(_square, jobs=2, policy=FAST).run(tasks)
        inline = ResilientExecutor(_square, jobs=1, policy=FAST).run(tasks)
        assert pool.results == inline.results
        assert pool.in_task_order(tasks) == inline.in_task_order(tasks)
        assert pool.report.attempts == 6
        assert not pool.report.degraded

    def test_pool_initializer_reaches_workers(self):
        executor = ResilientExecutor(
            _offset_square,
            jobs=2,
            initializer=_set_offset,
            initargs=(1000,),
            policy=FAST,
        )
        outcome = executor.run(_tasks(4))
        assert outcome.results["t-3"] == 1009

    def test_deterministic_worker_error_propagates(self):
        executor = ResilientExecutor(_boom, jobs=2, policy=FAST)
        with pytest.raises(ValueError, match="deterministic failure"):
            executor.run(_tasks(2))


class TestCrashRecovery:
    def test_all_crashes_degrade_to_serial(self):
        # crash_fraction=1.0: every pool attempt kills its worker, so every
        # task must exhaust its budget and complete on the serial fallback
        # (where chaos never runs) with the exact fault-free answers.
        policy = ExecPolicy(
            retries=1, chaos=ChaosPolicy(seed=11, crash_fraction=1.0)
        )
        tasks = _tasks(3)
        outcome, events = _traced_run(
            ResilientExecutor(_square, jobs=2, policy=policy), tasks
        )
        assert outcome.in_task_order(tasks) == [0, 1, 4]
        report = outcome.report
        assert report.fallbacks == 3
        assert report.broken_pools >= 1
        assert report.degraded
        assert _task_ids(events, "exec.fallback") == {"t-0", "t-1", "t-2"}

    def test_partial_crashes_retry_to_success(self):
        # 0.5 crash fraction re-rolls per attempt: with a generous budget
        # every task eventually lands a clean attempt (or falls back), and
        # the results must still be exact.
        policy = ExecPolicy(
            retries=4, chaos=ChaosPolicy(seed=5, crash_fraction=0.5)
        )
        tasks = _tasks(6)
        outcome = ResilientExecutor(_square, jobs=2, policy=policy).run(tasks)
        assert outcome.in_task_order(tasks) == [0, 1, 4, 9, 16, 25]
        assert outcome.report.attempts >= 6


class TestDeadlineWatchdog:
    def test_hangs_are_timed_out_and_recovered(self):
        policy = ExecPolicy(
            retries=1,
            task_timeout=0.2,
            chaos=ChaosPolicy(seed=7, hang_fraction=1.0),
        )
        tasks = _tasks(2)
        outcome, events = _traced_run(
            ResilientExecutor(_square, jobs=2, policy=policy), tasks
        )
        assert outcome.in_task_order(tasks) == [0, 1]
        report = outcome.report
        # each task's two hung attempts time out once each
        assert report.timeouts == 4
        assert report.pool_rebuilds >= 1
        assert report.fallbacks == 2
        timeouts = [e for e in events if e["name"] == "exec.timeout"]
        assert len(timeouts) == 4
        assert all(
            e["attributes"]["detail"] == "exceeded the 0.2s deadline"
            for e in timeouts
        )

    def test_deadline_runs_from_hand_off_not_from_queueing(self):
        # 24 tasks of 50 ms on two workers queue for 0.6 s, twice the
        # deadline; each task is handed to a free worker, so none times out.
        policy = ExecPolicy(retries=0, task_timeout=0.3)
        tasks = _tasks(24)
        outcome = ResilientExecutor(_slow_square, jobs=2, policy=policy).run(
            tasks
        )
        assert outcome.in_task_order(tasks) == [i * i for i in range(24)]
        assert (outcome.report.timeouts, outcome.report.fallbacks) == (0, 0)

    def test_no_timeout_without_deadline(self):
        policy = ExecPolicy(retries=1, task_timeout=None)
        outcome = ResilientExecutor(_slow_square, jobs=2, policy=policy).run(
            _tasks(2)
        )
        assert outcome.report.timeouts == 0
        assert outcome.results == {"t-0": 0, "t-1": 1}


class TestReportShape:
    def test_summary(self):
        outcome = ResilientExecutor(_square, jobs=1, policy=FAST).run(
            _tasks(2)
        )
        report = outcome.report
        assert "2/2 tasks" in report.summary()
        assert (report.completed, report.tasks, report.attempts) == (2, 2, 0)
        assert not report.degraded

    def test_repr(self):
        executor = ResilientExecutor(_square, jobs=3, policy=FAST, label="x")
        assert "label='x'" in repr(executor) and "jobs=3" in repr(executor)


class TestReportClocks:
    def test_durations_are_monotonic_not_wall_clock(self):
        report = ExecutionReport(label="clocks", tasks=0)
        time.sleep(0.01)
        report.finish()
        assert report.elapsed_seconds >= 0.01

    def test_run_finishes_the_report(self):
        outcome = ResilientExecutor(_square, jobs=1, policy=FAST).run(
            _tasks(2)
        )
        assert outcome.report.elapsed_seconds > 0.0
        assert outcome.report.summary().endswith("s")
