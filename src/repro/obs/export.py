"""Metrics export: snapshot journal and resource sampler.

Long certify/sweep/experiment runs accumulate their registry inside the
process; this module gets those numbers *out* while the run is still
going:

* :class:`MetricsSnapshotWriter` appends timestamped snapshots to a
  JSONL journal with the same crash semantics as the trace sink (a kill
  costs at most the final torn line), rate-limited by a minimum
  interval so hot loops can call :meth:`MetricsSnapshotWriter.maybe`
  unconditionally.
* :class:`ResourceSampler` reads ``/proc/self`` (no dependencies) and
  feeds ``proc.rss_bytes`` / ``proc.cpu_seconds`` / ``proc.num_threads``
  gauges — opt-in, and a silent no-op on hosts without procfs.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.obs.console import wall_clock
from repro.obs.metrics import Metrics

__all__ = [
    "MetricsSnapshotWriter",
    "ResourceSampler",
    "set_pump",
    "pump",
]


class MetricsSnapshotWriter:
    """Periodic JSONL journal of metrics snapshots.

    Each line is ``{"kind": "metrics", "recorded_unix": ..., "values":
    <snapshot>}`` with sorted keys, appended and flushed — the same
    journal semantics as :class:`~repro.obs.sink.JsonlTraceSink`, so a
    killed run leaves at most one torn final line and every earlier
    snapshot intact.  :meth:`maybe` rate-limits to ``interval_seconds``
    and is safe to call from a hot loop; :meth:`write` is unconditional.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        metrics: Metrics,
        interval_seconds: float = 10.0,
    ):
        import json

        self._json = json
        self.path = Path(path)
        self.metrics = metrics
        self.interval_seconds = float(interval_seconds)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._last = float("-inf")
        self.written = 0

    def maybe(self) -> bool:
        """Write a snapshot iff the interval elapsed; report whether."""
        now = wall_clock()
        if now - self._last < self.interval_seconds:
            return False
        self.write(now)
        return True

    def write(self, now: float | None = None) -> None:
        """Append one snapshot line unconditionally."""
        if self._handle is None:
            return
        now = wall_clock() if now is None else now
        record = {
            "kind": "metrics",
            "recorded_unix": now,
            "values": self.metrics.snapshot(),
        }
        self._handle.write(self._json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._last = now
        self.written += 1

    def close(self) -> None:
        """Write a final snapshot and close the journal (idempotent)."""
        if self._handle is not None:
            self.write()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MetricsSnapshotWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ResourceSampler:
    """Opt-in ``/proc``-based process resource gauges.

    Reads ``/proc/self/statm`` (resident pages) and ``/proc/self/stat``
    (utime+stime jiffies, thread count) and sets the ``proc.rss_bytes``,
    ``proc.cpu_seconds``, and ``proc.num_threads`` gauges on the given
    registry.  Construction probes procfs once: on hosts without it
    (macOS, containers with hidden /proc) :attr:`available` is False and
    :meth:`sample` is a no-op, so callers never need to guard.
    """

    def __init__(self, metrics: Metrics):
        self.metrics = metrics
        self.samples = 0
        self._page_size = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
        try:
            self._ticks = os.sysconf("SC_CLK_TCK")
        except (AttributeError, ValueError, OSError):
            self._ticks = 100
        self.available = (
            Path("/proc/self/statm").exists()
            and Path("/proc/self/stat").exists()
        )

    def sample(self) -> dict[str, float] | None:
        """Take one sample; returns the readings, or ``None`` if unavailable."""
        if not self.available:
            return None
        try:
            statm = Path("/proc/self/statm").read_text().split()
            stat = Path("/proc/self/stat").read_text()
        except OSError:
            return None
        rss_bytes = float(int(statm[1]) * self._page_size)
        # /proc/self/stat field 2 is `(comm)` and may contain spaces —
        # everything after the closing paren is fixed-position.
        fields = stat.rsplit(")", 1)[-1].split()
        utime, stime = float(fields[11]), float(fields[12])
        cpu_seconds = (utime + stime) / float(self._ticks)
        num_threads = float(fields[17])
        self.metrics.gauge("proc.rss_bytes").set(rss_bytes)
        self.metrics.gauge("proc.cpu_seconds").set(cpu_seconds)
        self.metrics.gauge("proc.num_threads").set(num_threads)
        self.samples += 1
        return {
            "rss_bytes": rss_bytes,
            "cpu_seconds": cpu_seconds,
            "num_threads": num_threads,
        }


# ------------------------------------------------------------ ambient pump
#
# Long-running loops (executor completions, the experiments runner) call
# `pump()` unconditionally; it is a None-check no-op unless the CLI's
# --metrics-out flag installed a writer.  The sampler, if any, runs just
# before each snapshot so the exported gauges are fresh.

_PUMP: MetricsSnapshotWriter | None = None
_SAMPLER: ResourceSampler | None = None


def set_pump(
    writer: MetricsSnapshotWriter | None,
    sampler: ResourceSampler | None = None,
) -> None:
    """Install (or clear, with ``None``) the ambient snapshot pump."""
    global _PUMP, _SAMPLER
    _PUMP = writer
    _SAMPLER = sampler


def pump() -> bool:
    """Emit a periodic snapshot if one is due; report whether it was.

    Safe (and near-free) to call from hot loops: without an installed
    writer this is a single ``None`` check, and with one it defers to
    the writer's minimum interval.
    """
    writer = _PUMP
    if writer is None:
        return False
    now = wall_clock()
    if now - writer._last < writer.interval_seconds:
        return False
    if _SAMPLER is not None:
        _SAMPLER.sample()
    writer.write(now)
    return True
