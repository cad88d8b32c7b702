"""The process-boundary helper: human diagnostics and the wall clock.

Everything the library says to a *human* — resilience degradation
summaries, search progress heartbeats, CLI error lines — goes through
this module instead of ad-hoc ``print(..., file=sys.stderr)`` calls, so
one ``--quiet`` switch (or :func:`set_quiet`) silences the chatter and
``--json``/piped runs stay machine-clean.  Informational *wall-clock*
timestamps are read here too (:func:`wall_clock`): durations everywhere
else in the package come from monotonic clocks, and lint rule RL010
flags any ``time.time()``/bare ``print()`` that tries to bypass this
module.

Routing rules:

* :func:`info` / :func:`progress` / :func:`warn` — stderr, suppressed
  when quiet;
* :func:`error` — stderr, **never** suppressed (a failing run must say
  why even under ``--quiet``);
* stdout is reserved for command *results* and is never written here.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = [
    "set_quiet",
    "info",
    "progress",
    "warn",
    "error",
    "wall_clock",
]

_quiet: bool = False


def set_quiet(quiet: bool) -> bool:
    """Install the quiet flag; returns the previous setting."""
    global _quiet
    previous = _quiet
    _quiet = bool(quiet)
    return previous


def _emit(message: str, stream: TextIO | None = None) -> None:
    print(message, file=stream if stream is not None else sys.stderr)


def info(message: str) -> None:
    """An informational one-liner (suppressed when quiet)."""
    if not _quiet:
        _emit(message)


def progress(message: str) -> None:
    """A live progress heartbeat (suppressed when quiet)."""
    if not _quiet:
        _emit(message)


def warn(message: str) -> None:
    """A degraded-but-continuing notice (suppressed when quiet)."""
    if not _quiet:
        _emit(message)


def error(message: str) -> None:
    """A failure line; always emitted, even when quiet."""
    _emit(message)


def wall_clock() -> float:
    """The informational Unix timestamp (seconds since the epoch).

    The one sanctioned ``time.time()`` read in the library: wall-clock
    values are *labels* (when did this run happen), never duration
    inputs — durations come from ``time.perf_counter()`` /
    ``time.monotonic()``.
    """
    return time.time()
