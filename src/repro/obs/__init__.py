"""Zero-dependency observability: tracing spans, metrics, and profiling.

``repro.obs`` is the package's telemetry layer.  It follows the same
ambient-policy convention as the plan cache and the resilient
executor: instrumented code calls :func:`current_tracer` and opens
spans on whatever tracer the caller installed with
:func:`using_tracer`; the default is the :data:`NULL_TRACER`, whose
every operation is a cached no-op, so un-traced runs pay near-zero
overhead (pinned by ``benchmarks/bench_obs.py``).

The moving parts:

* :class:`Tracer` / :class:`Span` — nested, monotonic-clock spans with
  process-qualified ids (:mod:`repro.obs.tracer`);
* :class:`Metrics` — counters, gauges, and base-2 exponential
  histograms, with task-order-deterministic snapshot merging
  (:mod:`repro.obs.metrics`);
* :class:`JsonlTraceSink` / :func:`read_trace` — crash-tolerant JSONL
  persistence matching ``CheckpointJournal`` torn-line semantics
  (:mod:`repro.obs.sink`);
* :func:`summarize_trace` — the ``repro trace summarize`` renderer
  (:mod:`repro.obs.summary`);
* :func:`critical_path` / :func:`utilization` / :func:`diff_traces` /
  :func:`canonical_form` — the trace analytics behind ``repro trace
  critical-path | waterfall | diff`` and the cross-run comparisons
  (:mod:`repro.obs.analyze`);
* :func:`profiling` — cProfile-backed ``--profile pstats|flamegraph``
  hooks (:mod:`repro.obs.profiling`);
* :mod:`repro.obs.console` — the single sanctioned stderr/wall-clock
  choke point, so ``--quiet``/``--json`` runs stay machine-clean.
"""

from __future__ import annotations

from repro.obs import console
from repro.obs.analyze import (
    build_forest,
    canonical_form,
    critical_path,
    diff_traces,
    rollup,
    utilization,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
)
from repro.obs.profiling import PROFILE_MODES, profiling, write_collapsed_stacks
from repro.obs.sink import TRACE_VERSION, JsonlTraceSink, read_trace
from repro.obs.summary import summarize_path, summarize_trace
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    using_tracer,
)

__all__ = [
    "console",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NULL_METRICS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "using_tracer",
    "TRACE_VERSION",
    "JsonlTraceSink",
    "read_trace",
    "summarize_trace",
    "summarize_path",
    "build_forest",
    "critical_path",
    "rollup",
    "utilization",
    "diff_traces",
    "canonical_form",
    "PROFILE_MODES",
    "profiling",
    "write_collapsed_stacks",
]
