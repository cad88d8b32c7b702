"""Structured accounting of one resilient execution.

Every :meth:`~repro.exec.executor.ResilientExecutor.run` produces an
:class:`ExecutionReport`: counters for the happy path (tasks completed,
resumed from a checkpoint) and for everything that went wrong and how it
was absorbed (retries, timeouts, pool rebuilds, serial downgrades).  Each
incident itself is an ``exec.*`` event in the ambient trace, not a second
log here.  The exact search returns its executors' reports on
:attr:`repro.placements.exact_search.ExactSearchResult.reports`, and
``repro certify`` prints the :meth:`~ExecutionReport.summary` of every
degraded one to stderr.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["ExecutionReport"]


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
    started_monotonic: float = field(default_factory=time.perf_counter)
    elapsed_seconds: float = 0.0

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
