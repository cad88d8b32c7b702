"""Nested tracing spans with an ambient, swappable tracer.

The design mirrors the package's other ambient state,
:func:`repro.load.plancache.using_plan_cache`: instrumented code asks for the
process-wide tracer via :func:`current_tracer` and opens spans on it —
no tracer argument threads through any signature.  The default tracer
is the :data:`NULL_TRACER`, whose ``span()`` returns one shared no-op
context manager and whose metrics registry drops everything, so
un-traced runs pay a near-zero, allocation-free cost at every
instrumentation site.

Spans measure with monotonic clocks (``time.perf_counter``); the single
wall-clock timestamp on each span is informational only and comes from
:func:`repro.obs.console.wall_clock`.  Span ids embed the producing
process id.  Pool workers write no records: under a traced parent each
pool task runs under a worker-local in-memory tracer, and only its
metrics snapshot travels back with the task's result (see
:mod:`repro.exec.executor`).

A finished span becomes one JSON-compatible record handed to the
tracer's *sink* (any object with ``emit(record)`` — see
:class:`repro.obs.sink.JsonlTraceSink`).  Events are zero-duration
records attributed to the currently open span, which is how the
resilient executor re-emits its retry/timeout/rebuild incidents into
the same stream as the timing spans.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from typing import Any, Iterator, Protocol

from repro.obs.console import wall_clock
from repro.obs.metrics import NULL_METRICS, Metrics

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "using_tracer",
]


class TraceSink(Protocol):
    """Anything that can receive finished span/event/metric records."""

    def emit(self, record: dict[str, Any]) -> None:
        """Accept one JSON-compatible trace record."""
        ...  # pragma: no cover - protocol


class Span:
    """One timed, attributed region of work.

    Use as a context manager (obtained from :meth:`Tracer.span`); the
    span is registered with its parent at ``__enter__`` and emitted to
    the sink at ``__exit__``.  ``duration_seconds`` is valid after exit.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "status",
        "started_unix",
        "duration_seconds",
        "_tracer",
        "_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]):
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id: str | None = None
        self.attributes = attributes
        self.status = "ok"
        self.started_unix: float = 0.0
        self.duration_seconds: float = 0.0
        self._tracer = tracer
        self._start: float = 0.0

    def annotate(self, **attributes: Any) -> "Span":
        """Attach or overwrite attributes on the open span."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self.parent_id = self._tracer._push(self)
        self.started_unix = wall_clock()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.duration_seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault(
                "error", getattr(exc_type, "__name__", str(exc_type))
            )
        self._tracer._pop(self)
        return False


class _NullSpan:
    """The shared span returned by the disabled tracer."""

    __slots__ = ()

    name = ""
    span_id = ""
    parent_id = None
    status = "ok"
    duration_seconds = 0.0
    started_unix = 0.0
    attributes: dict[str, Any] = {}

    def annotate(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """An enabled tracer: nested spans, events, and a metrics registry.

    Parameters
    ----------
    sink:
        Destination for finished records (``None`` keeps spans in
        :attr:`finished` only — useful for tests).
    metrics:
        The registry instrumented code reaches via ``tracer.metrics``
        (a fresh :class:`~repro.obs.metrics.Metrics` by default).
    label:
        Human-readable name for the whole trace (the CLI passes the
        subcommand name).
    keep_finished:
        Retain finished span objects on the tracer (bounded by
        ``keep_limit``); on by default only when no sink is given.
    """

    enabled = True

    def __init__(
        self,
        sink: TraceSink | None = None,
        metrics: Metrics | None = None,
        label: str = "trace",
        keep_finished: bool | None = None,
        keep_limit: int = 10_000,
    ):
        self.sink = sink
        self.metrics = metrics if metrics is not None else Metrics()
        self.label = label
        self.finished: list[Span] = []
        self._keep = keep_finished if keep_finished is not None else sink is None
        self._keep_limit = keep_limit
        self._stack: list[Span] = []
        self._counter = itertools.count(1)
        self._closed = False

    # -------------------------------------------------------------- spans

    def _next_id(self) -> str:
        return f"{os.getpid():08x}-{next(self._counter):06x}"

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span, parented to the innermost open span on entry."""
        return Span(self, name, attributes)

    def current_span_id(self) -> str | None:
        """Id of the innermost open span (``None`` at the trace root)."""
        return self._stack[-1].span_id if self._stack else None

    def _push(self, span: Span) -> str | None:
        parent = self.current_span_id()
        self._stack.append(span)
        return parent

    def _pop(self, span: Span) -> None:
        # tolerate exotic unwinding orders rather than corrupting state
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()
        if self._keep and len(self.finished) < self._keep_limit:
            self.finished.append(span)
        self._emit(
            {
                "kind": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "status": span.status,
                "started_unix": span.started_unix,
                "duration_seconds": span.duration_seconds,
                "attributes": span.attributes,
            }
        )

    def record_span(
        self, name: str, duration_seconds: float, **attributes: Any
    ) -> None:
        """Emit an already-measured span (asynchronous/pool-side work).

        The span never opens on the stack; it is attributed to the
        innermost currently-open span, which is how the executor maps
        pool-task latencies under its ``exec.run`` span.  The recorded
        ``started_unix`` is back-dated by the duration so waterfall and
        utilization renderings place the span where it actually ran,
        not at its completion instant.
        """
        self._emit(
            {
                "kind": "span",
                "name": name,
                "id": self._next_id(),
                "parent": self.current_span_id(),
                "status": str(attributes.pop("status", "ok")),
                "started_unix": wall_clock() - float(duration_seconds),
                "duration_seconds": float(duration_seconds),
                "attributes": attributes,
            }
        )

    def event(self, name: str, **attributes: Any) -> None:
        """Emit a zero-duration incident attached to the open span."""
        self._emit(
            {
                "kind": "event",
                "name": name,
                "span": self.current_span_id(),
                "attributes": attributes,
            }
        )

    # ------------------------------------------------------------ lifecycle

    def _emit(self, record: dict[str, Any]) -> None:
        if self.sink is not None:
            self.sink.emit(record)

    def finish(self) -> None:
        """Flush the final metrics snapshot and close the sink (idempotent)."""
        if self._closed:
            return
        self._emit({"kind": "metrics", "values": self.metrics.snapshot()})
        self._closed = True
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:
        return (
            f"Tracer(label={self.label!r}, sink={self.sink!r}, "
            f"open_spans={len(self._stack)})"
        )


class NullTracer:
    """The disabled tracer: every operation is a cached no-op."""

    enabled = False
    metrics: Metrics = NULL_METRICS
    label = "null"

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> str | None:
        return None

    def record_span(
        self, name: str, duration_seconds: float, **attributes: Any
    ) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: the shared disabled tracer (the process-wide default).
NULL_TRACER = NullTracer()

_current: "Tracer | NullTracer" = NULL_TRACER


def current_tracer() -> "Tracer | NullTracer":
    """The ambient tracer instrumented code should open spans on."""
    return _current


def set_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Install the ambient tracer (``None`` resets to the null tracer)."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER
    return _current


@contextlib.contextmanager
def using_tracer(
    tracer: "Tracer | NullTracer | None",
) -> Iterator["Tracer | NullTracer"]:
    """Temporarily install ``tracer`` as the ambient tracer.

    ``None`` is a no-op (the current tracer stays in effect), so a
    caller can pass an optional tracer straight through.
    """
    global _current
    if tracer is None:
        yield _current
        return
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
