"""JSONL trace persistence: the sink, and the torn-line-tolerant reader.

The on-disk format deliberately mirrors
:class:`repro.exec.journal.CheckpointJournal`: line one is a header
(kind, format version, pid, label, informational wall-clock timestamp),
every further line is one span/event/metrics record, and crash-safety
comes from the format rather than fsync heroics — a process killed
mid-write leaves at most one truncated final line, which
:func:`read_trace` detects and drops.  A corrupt *interior* line means
the file was edited or mixed between runs, and raises
:class:`~repro.errors.TraceError` instead of silently summarizing a
half-trusted trace.

Records are JSON objects with sorted keys, one per line::

    {"kind": "header", "version": 1, "label": "certify", ...}
    {"kind": "span", "name": "exec.run", "duration_seconds": ..., ...}
    {"kind": "event", "name": "exec.retry", ...}
    {"kind": "metrics", "values": {"counters": {...}, ...}}
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, TextIO

from repro.errors import TraceError
from repro.obs.console import wall_clock

__all__ = [
    "TRACE_VERSION",
    "JsonlTraceSink",
    "read_trace",
]

#: bump when the record format changes incompatibly.
TRACE_VERSION = 1


class JsonlTraceSink:
    """Append-only JSONL destination for one trace.

    Parameters
    ----------
    path:
        Output file (parent directories are created; an existing file is
        truncated — each run is one trace).
    label:
        Human-readable trace name stored in the header.
    """

    def __init__(self, path: str | os.PathLike[str], label: str = "trace"):
        self.path = Path(path)
        self.label = label
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: TextIO | None = self.path.open("w", encoding="utf-8")
        self.emit(
            {
                "kind": "header",
                "version": TRACE_VERSION,
                "label": label,
                "pid": os.getpid(),
                "started_unix": wall_clock(),
            }
        )

    def emit(self, record: dict[str, Any]) -> None:
        """Write one record as a JSON line (sorted keys, flushed)."""
        if self._handle is None:
            raise TraceError(f"trace sink {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"JsonlTraceSink(path={str(self.path)!r})"


def _parse_line(line: str) -> dict[str, Any] | None:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_trace(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Load every record of one JSONL trace file, header first.

    Tolerates exactly the :class:`~repro.exec.journal.CheckpointJournal`
    kill artifact — one truncated *final* line, which is dropped; any
    corrupt interior line raises :class:`~repro.errors.TraceError`, as
    does a missing file, a directory, a missing/invalid header or an
    unsupported format version.
    """
    trace_path = Path(path)
    if trace_path.is_dir():
        raise TraceError(f"{trace_path} is a directory, not a trace file")
    if not trace_path.exists():
        raise TraceError(f"trace file {trace_path} does not exist")
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceError(f"trace file {trace_path} is empty")
    header = _parse_line(lines[0])
    if header is None or header.get("kind") != "header":
        raise TraceError(
            f"{trace_path} does not start with a trace header line"
        )
    if header.get("version") != TRACE_VERSION:
        raise TraceError(
            f"trace version {header.get('version')!r} != supported "
            f"version {TRACE_VERSION}"
        )
    records = [header]
    for lineno, line in enumerate(lines[1:], start=2):
        record = _parse_line(line)
        if record is None:
            if lineno != len(lines):
                raise TraceError(
                    f"{trace_path}:{lineno} is corrupt mid-file — traces "
                    "are append-only; only a truncated final line is a "
                    "legitimate crash artifact"
                )
            continue  # torn final line: the span simply went unrecorded
        records.append(record)
    return records
