"""Structured accounting of one resilient execution.

Every :meth:`~repro.exec.executor.ResilientExecutor.run` produces an
:class:`ExecutionReport`: counters for the happy path (tasks completed,
resumed from a checkpoint) and a typed event log for everything that went
wrong and how it was absorbed (retries, timeouts, pool rebuilds, serial
downgrades).  The exact search returns its executors' reports on
:attr:`repro.placements.exact_search.ExactSearchResult.reports`, and
``repro certify`` prints the :meth:`~ExecutionReport.summary` of every
degraded one to stderr.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["ExecutionEvent", "ExecutionReport"]


@dataclass(frozen=True)
class ExecutionEvent:
    """One noteworthy incident during a resilient run.

    ``kind`` is one of ``"resume"``, ``"retry"``, ``"timeout"``,
    ``"broken-pool"``, ``"rebuild"``, ``"fallback"``; ``task_id`` is
    ``None`` for pool-wide events.
    """

    kind: str
    task_id: str | None
    attempt: int
    detail: str


@dataclass
class ExecutionReport:
    """What one resilient fan-out did, and what it survived.

    Attributes
    ----------
    label:
        The executor's human-readable workload name.
    tasks:
        Total tasks in the workload (including resumed ones).
    completed:
        Tasks whose results were produced this run (pool or fallback).
    resumed:
        Tasks satisfied from the checkpoint journal without re-execution.
    attempts:
        Pool-side execution attempts actually charged.
    retries:
        Attempts beyond each task's first (``attempts - first tries``).
    timeouts:
        Deadline expirations observed by the watchdog.
    broken_pools:
        ``BrokenProcessPool`` incidents absorbed.
    pool_rebuilds:
        Times the process pool was torn down and rebuilt.
    fallbacks:
        Tasks downgraded to in-process serial execution after exhausting
        their retry budget.
    events:
        The ordered incident log (see :class:`ExecutionEvent`).
    started_monotonic:
        ``time.perf_counter()`` at creation — the basis every duration
        is computed from (see :meth:`finish`).
    elapsed_seconds:
        Monotonic run duration, set by :meth:`finish`.
    """

    label: str = "exec"
    tasks: int = 0
    completed: int = 0
    resumed: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    broken_pools: int = 0
    pool_rebuilds: int = 0
    fallbacks: int = 0
    events: list[ExecutionEvent] = field(default_factory=list)
    started_monotonic: float = field(default_factory=time.perf_counter)
    elapsed_seconds: float = 0.0

    def add_event(
        self, kind: str, task_id: str | None, attempt: int, detail: str
    ) -> None:
        """Append one incident to the log."""
        self.events.append(ExecutionEvent(kind, task_id, attempt, detail))

    def finish(self) -> None:
        """Fix ``elapsed_seconds`` from the monotonic start."""
        self.elapsed_seconds = time.perf_counter() - self.started_monotonic

    @property
    def degraded(self) -> bool:
        """Whether anything non-ideal happened (retry, timeout, fallback)."""
        return bool(
            self.retries
            or self.timeouts
            or self.broken_pools
            or self.fallbacks
        )

    def summary(self) -> str:
        """One line suitable for CLI/warning output."""
        parts = [
            f"{self.label}: {self.completed}/{self.tasks} tasks",
        ]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.broken_pools:
            parts.append(f"{self.broken_pools} pool breaks")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} rebuilds")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} serial fallbacks")
        parts.append(f"{self.elapsed_seconds:.2f}s")
        return ", ".join(parts)
