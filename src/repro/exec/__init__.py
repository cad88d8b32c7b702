"""Resilient execution layer: retries, deadlines, checkpoint/resume.

Every process-pool fan-out in the package (the brute-force placement
catalog and the exact-search subtree shards) goes through this subsystem
instead of constructing pools directly (lint rule RL009 enforces the
facade).  The layer turns a fragile
``ProcessPoolExecutor`` into a production-shaped executor:

* :class:`ResilientExecutor` — bounded retries with deterministic
  exponential backoff, a per-task deadline watchdog, automatic pool
  rebuild after worker crashes, and graceful degradation to in-process
  serial execution once a task's retry budget is spent;
* :class:`ExecPolicy` / :func:`using_exec_policy` — ambient configuration
  (the CLI's ``--retries``/``--task-timeout``/``--chaos-seed`` flags);
* :class:`CheckpointJournal` — an append-only JSONL journal of completed
  task ids and partial accumulators, so ``repro certify --resume`` and
  ``repro experiments --resume`` restart long runs after a crash;
* :class:`ChaosPolicy` — seeded fault injection (crash/hang/slow) used by
  the chaos test suites to prove the above paths actually work;
* :class:`ExecutionReport` — structured accounting of every retry,
  timeout, rebuild, and downgrade a run absorbed.

See ``docs/ROBUSTNESS.md`` for the retry/fallback state machine and the
journal format.
"""

from repro.exec.chaos import CHAOS_FAULTS, ChaosPolicy, unit_hash
from repro.exec.executor import ExecTask, ExecutionOutcome, ResilientExecutor
from repro.exec.journal import JOURNAL_VERSION, CheckpointJournal
from repro.exec.policy import (
    ExecPolicy,
    current_exec_policy,
    set_exec_policy,
    using_exec_policy,
)
from repro.exec.report import (
    ExecutionEvent,
    ExecutionReport,
    clear_reports,
    recent_reports,
    record_report,
)

__all__ = [
    "CHAOS_FAULTS",
    "ChaosPolicy",
    "unit_hash",
    "ExecTask",
    "ExecutionOutcome",
    "ResilientExecutor",
    "JOURNAL_VERSION",
    "CheckpointJournal",
    "ExecPolicy",
    "current_exec_policy",
    "set_exec_policy",
    "using_exec_policy",
    "ExecutionEvent",
    "ExecutionReport",
    "clear_reports",
    "recent_reports",
    "record_report",
]
