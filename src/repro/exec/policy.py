"""What a resilient run may spend on faults: retries, a deadline, chaos.

``repro certify`` builds one :class:`ExecPolicy` from its resilience
flags (``--retries``/``--task-timeout``/``--chaos-*``) and passes it to
:func:`repro.placements.exact_search.exact_global_minimum`, which hands
it to every :class:`~repro.exec.executor.ResilientExecutor` it builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.exec.chaos import ChaosPolicy

__all__ = ["ExecPolicy"]


@dataclass(frozen=True)
class ExecPolicy:
    """Everything a :class:`~repro.exec.executor.ResilientExecutor` needs
    beyond the workload itself.

    Parameters
    ----------
    retries:
        Pool re-attempts granted to a task after its first failed attempt;
        once exhausted the task falls back to in-process serial execution.
    task_timeout:
        Per-task deadline in seconds; ``None`` disables the watchdog.
    chaos:
        Optional :class:`~repro.exec.chaos.ChaosPolicy` injected into
        workers (never into serial fallbacks).
    """

    retries: int = 2
    task_timeout: float | None = None
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
