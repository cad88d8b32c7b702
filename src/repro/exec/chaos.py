"""Deterministic fault injection for the resilience layer.

A :class:`ChaosPolicy` decides — purely from a seed, a task id, and an
attempt number — whether a worker-side task execution should ``crash``
(hard-kill its worker process), ``hang`` (sleep until the deadline
watchdog terminates its worker), or run clean.  The decision is a salted
SHA-256 hash mapped to the unit interval, so:

* the *same* seed reproduces the same fault schedule run after run — the
  chaos suites in ``tests/`` are ordinary deterministic tests;
* each retry *attempt* re-rolls independently, so a task crashed on its
  first attempt usually survives its second, exactly like a transient
  real-world fault;
* the parent process can predict every injected fault without any
  communication from the workers.

Faults are injected only on the process-pool path — the serial fallback
and the inline ``jobs=1`` paths never consult the policy — so a chaotic
run must converge to the fault-free answer as long as the retry/fallback
machinery works.  That contrapositive is what makes the resilience layer
itself testable.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.errors import InvalidParameterError

__all__ = ["ChaosPolicy", "CHAOS_FAULTS", "unit_hash"]

#: every fault kind a policy can inject, in decision order.
CHAOS_FAULTS = ("crash", "hang")

#: exit code used by injected worker crashes (visible in pool diagnostics).
_CRASH_EXIT_CODE = 73

#: how long a hung task sleeps: far past any deadline, so the watchdog,
#: not the sleep, ends the task.
_HANG_SECONDS = 3600.0


def unit_hash(*parts: object) -> float:
    """Map ``parts`` deterministically to a float in ``[0, 1)``.

    The salted-hash primitive behind every chaos decision, so a run's
    fault schedule is a pure function of its seed.
    """
    digest = hashlib.sha256(
        ":".join(str(part) for part in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded schedule of worker faults for a resilient run.

    Parameters
    ----------
    seed:
        Root of the deterministic schedule; two runs with equal seeds
        inject identical faults.
    crash_fraction, hang_fraction:
        Expected fraction of (task, attempt) executions hit by each fault
        kind; the two must sum to at most 1.  A hung task never finishes
        by itself, so a policy that hangs needs the executor's
        ``task_timeout``.
    """

    seed: int
    crash_fraction: float = 0.0
    hang_fraction: float = 0.0

    def __post_init__(self) -> None:
        total = 0.0
        for name in ("crash_fraction", "hang_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidParameterError(
                    f"{name} must be within [0, 1], got {value}"
                )
            total += value
        if total > 1.0 + 1e-12:
            raise InvalidParameterError(
                f"fault fractions must sum to <= 1, got {total}"
            )

    def decide(self, task_id: str, attempt: int) -> str | None:
        """The fault injected for one task attempt (``None`` for a clean run).

        Deterministic in ``(seed, task_id, attempt)``; attempts re-roll
        independently so retries model transient faults.
        """
        u = unit_hash(self.seed, "chaos", task_id, attempt)
        threshold = 0.0
        for kind, fraction in zip(
            CHAOS_FAULTS, (self.crash_fraction, self.hang_fraction)
        ):
            threshold += fraction
            if u < threshold:
                return kind
        return None

    def inject(self, task_id: str, attempt: int) -> None:
        """Execute the scheduled fault inside a worker process.

        ``crash`` hard-exits the interpreter (the parent sees a broken
        pool); ``hang`` sleeps until the parent's deadline watchdog
        terminates the worker.
        """
        fault = self.decide(task_id, attempt)
        if fault == "crash":
            os._exit(_CRASH_EXIT_CODE)
        elif fault == "hang":
            time.sleep(_HANG_SECONDS)
