"""Process-wide execution policy for the resilience layer.

Mirrors the :func:`repro.load.plancache.using_plan_cache` pattern: call
sites construct a :class:`~repro.exec.executor.ResilientExecutor` without
threading retry/timeout/chaos options through every signature — the
executor reads the ambient :class:`ExecPolicy` installed by
:func:`using_exec_policy` (the CLI's ``--retries``/``--task-timeout``/
``--chaos-seed`` flags end up here).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import InvalidParameterError
from repro.exec.chaos import ChaosPolicy

__all__ = [
    "ExecPolicy",
    "current_exec_policy",
    "using_exec_policy",
]


@dataclass(frozen=True)
class ExecPolicy:
    """Everything a :class:`~repro.exec.executor.ResilientExecutor` needs
    beyond the workload itself.

    Parameters
    ----------
    retries:
        Pool re-attempts granted to a task after its first failed attempt;
        once exhausted the task falls back to in-process serial execution
        (or raises, when ``fallback_serial`` is off).
    task_timeout:
        Per-task deadline in seconds; ``None`` disables the watchdog.
    backoff_base, backoff_factor, backoff_max:
        Retry ``n`` of a task is delayed
        ``min(backoff_max, backoff_base * backoff_factor**(n-1))`` seconds,
        scaled by a deterministic jitter in ``[0.5, 1.0)`` derived from
        ``(seed, task_id, n)`` — reruns reproduce the exact schedule.
    seed:
        Root of the deterministic jitter (and of nothing else; chaos has
        its own seed).
    heartbeat:
        Watchdog polling interval in seconds — the granularity at which
        deadlines are checked and completions are collected.
    fallback_serial:
        Whether a task that exhausts its retry budget degrades to the
        in-process serial path instead of failing the run.
    chaos:
        Optional :class:`~repro.exec.chaos.ChaosPolicy` injected into
        workers (never into serial fallbacks).
    """

    retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    seed: int = 0
    heartbeat: float = 0.05
    fallback_serial: bool = True
    chaos: ChaosPolicy | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise InvalidParameterError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise InvalidParameterError(
                "backoff_base and backoff_max must be >= 0"
            )
        if self.backoff_factor < 1.0:
            raise InvalidParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.heartbeat <= 0:
            raise InvalidParameterError(
                f"heartbeat must be positive, got {self.heartbeat}"
            )

    def with_chaos(self, chaos: ChaosPolicy | None) -> "ExecPolicy":
        """A copy of this policy with a different chaos schedule."""
        return replace(self, chaos=chaos)


_default_policy: ExecPolicy | None = None


def current_exec_policy() -> ExecPolicy:
    """The ambient policy used when an executor is built without one."""
    global _default_policy
    if _default_policy is None:
        _default_policy = ExecPolicy()
    return _default_policy


@contextlib.contextmanager
def using_exec_policy(policy: ExecPolicy | None) -> Iterator[ExecPolicy]:
    """Temporarily install ``policy`` as the ambient execution policy.

    ``None`` is a no-op (the current policy stays in effect), so the
    CLI can pass an optional policy straight through.
    """
    global _default_policy
    if policy is None:
        yield current_exec_policy()
        return
    previous = _default_policy
    _default_policy = policy
    try:
        yield policy
    finally:
        _default_policy = previous
