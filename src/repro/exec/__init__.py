"""Resilient execution layer: retries, deadlines, checkpoint/resume.

The package's one process-pool fan-out, the exact search's subtree
shards behind ``repro certify``, goes through this subsystem instead of
constructing a pool directly (lint rule RL009 enforces the facade).  The layer turns a fragile
``ProcessPoolExecutor`` into a production-shaped executor:

* :class:`ResilientExecutor` — hands each task to a free worker, with
  bounded immediate retries, a per-task deadline watchdog, automatic
  pool rebuild after worker crashes, and graceful degradation to
  in-process serial execution once a task's retry budget is spent;
* :class:`ExecPolicy` — the retry budget, deadline and chaos schedule
  (the CLI's ``--retries``/``--task-timeout``/``--chaos-*`` flags),
  passed to each executor by its caller;
* :class:`CheckpointJournal` — an append-only JSONL journal of completed
  task ids and partial accumulators, so ``repro certify --resume``
  restarts a long search after a crash;
* :class:`ChaosPolicy` — seeded fault injection (crash/hang) used by
  the chaos test suites to prove the above paths actually work;
* :class:`ExecutionReport` — counts of the retries, timeouts,
  rebuilds, and downgrades a run absorbed, returned with its results
  (each incident is also an ``exec.*`` event in the ambient trace).

See ``docs/ROBUSTNESS.md`` for the retry/fallback state machine and the
journal format.
"""

from repro.exec.chaos import CHAOS_FAULTS, ChaosPolicy, unit_hash
from repro.exec.executor import ExecTask, ExecutionOutcome, ResilientExecutor
from repro.exec.journal import JOURNAL_VERSION, CheckpointJournal
from repro.exec.policy import ExecPolicy
from repro.exec.report import ExecutionReport

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
    "ExecutionReport",
]
