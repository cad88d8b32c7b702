"""Benchmark the observability layer's overhead on a certify workload.

The telemetry charter (`docs/OBSERVABILITY.md`) promises that tracing is
free when nobody asked for it and cheap when they did.  This suite pins
both halves on the ``repro certify --k 7 --d 2`` workload — a serial
bound-mode certification of all ``C(49, 7)`` placements on ``T_7^2``
(about 1.6 s).  The ladder certifies ``T_6^2`` in tens of milliseconds,
where the null-path micro-benchmark below nears the 2% pin and the
enabled pin's absolute noise floor exceeds the whole traced run, so the
workload is the next torus up:

* **disabled** — with no tracer installed every instrumentation site
  dispatches to ``NULL_TRACER``/``_NULL_SPAN``; a micro-benchmark of
  the null path proves the workload's handful of tracer touches cost
  under 2% of its wall-clock;
* **enabled** — a real ``Tracer`` writing JSONL must stay within 10%
  of the disabled run (plus an absolute floor so single-core CI
  scheduler jitter cannot flake the suite); both sides are timed in the
  same interleaved rounds, so a drift in host speed hits them alike.
  On a shared host that ratio moves by more than 10% from run to run,
  so the traced run's work is also pinned exactly: the records it
  writes and the search counters it flushes.  A span, event or counter
  added in the search's hot loop changes those counts, however noisy
  the clock.

Both traced and untraced runs must certify bit-identical results — the
tracer is an observer, never a participant.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from _timing import best_of as _best_of
from _timing import interleaved_best_of

from repro.obs import (
    JsonlTraceSink,
    Tracer,
    current_tracer,
    read_trace,
    using_tracer,
)
from repro.placements.exact_search import exact_global_minimum
from repro.torus.topology import Torus

K, D, SIZE = 7, 2, 7

#: enabled / disabled wall-clock ratio pin.
MAX_ENABLED_RATIO = 1.10
#: the disabled (null) path must cost < 2% of the workload.
MAX_DISABLED_FRACTION = 0.02
#: absolute jitter floor (seconds) so sub-second CI noise cannot flake.
NOISE_FLOOR = 0.25
#: null-path micro-benchmark iterations — a serial certify performs a
#: couple of dozen tracer touches, so 1000 bounds it from far above.
NULL_OPS = 1_000
#: ``(kind, name)`` of every record the traced certify writes: one span
#: for the search, one per ladder rung (E_max <= 2 refuted, <= 3
#: certified), no events, and the final metrics snapshot.
TRACE_RECORDS = {
    ("header", None): 1,
    ("span", "search.certify"): 1,
    ("span", "search.rung"): 2,
    ("metrics", None): 1,
}


def _certify():
    return exact_global_minimum(Torus(K, D), SIZE, progress=False)


def _traced_certify(trace_path):
    tracer = Tracer(
        sink=JsonlTraceSink(trace_path, label="bench"), label="bench"
    )
    with using_tracer(tracer):
        result = _certify()
    tracer.finish()
    return result


def _result_key(result):
    return (
        result.minimum_emax,
        result.num_placements,
        result.num_optimal,
        result.counters,
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_certify_untraced(benchmark):
    result = benchmark(_certify)
    assert result.minimum_emax == 3.0


@pytest.mark.benchmark(group="obs-overhead")
def test_certify_traced(benchmark, tmp_path):
    result = benchmark(_traced_certify, tmp_path / "bench.jsonl")
    assert result.minimum_emax == 3.0


def test_traced_work_pinned(tmp_path):
    """The traced certify writes exactly ``TRACE_RECORDS``.

    Its ``search.*`` counters are the result's own work counters, plus
    the canonicity rejections, and no others.
    """
    trace = tmp_path / "work.jsonl"
    work = _traced_certify(trace).counters
    records = read_trace(trace)
    assert Counter((r["kind"], r.get("name")) for r in records) == TRACE_RECORDS
    expected = {
        f"search.{field.name}": getattr(work, field.name)
        for field in dataclasses.fields(work)
    }
    expected["search.canonical_rejections"] = (
        work.canonicity_checks - work.canonical_nodes
    )
    counters = records[-1]["values"]["counters"]
    assert {
        name: value
        for name, value in counters.items()
        if name.startswith("search.")
    } == expected


def test_disabled_path_costs_under_two_percent(capsys):
    """1k null-tracer touches cost < 2% of one certify wall-clock.

    The workload itself performs far fewer tracer touches than this, so
    bounding the micro-cost bounds the real disabled overhead from above.
    """
    workload_time, _ = _best_of(_certify)

    tracer = current_tracer()
    assert not tracer.enabled

    def _null_touches():
        for _ in range(NULL_OPS):
            with tracer.span("bench.noop", k=K):
                pass
            tracer.event("bench.noop")
            tracer.metrics.counter("bench.noop").add(1)

    null_time, _ = _best_of(_null_touches)
    fraction = null_time / workload_time
    with capsys.disabled():
        print(
            f"\nobs disabled: workload={workload_time:.3f}s "
            f"{NULL_OPS} null ops={null_time * 1e3:.2f}ms "
            f"fraction={fraction:.4f}"
        )
    assert null_time <= workload_time * MAX_DISABLED_FRACTION, (
        f"null tracer path costs {fraction:.2%} of the certify workload, "
        f"over the {MAX_DISABLED_FRACTION:.0%} pin"
    )


def test_enabled_overhead_pinned(tmp_path, capsys):
    """Traced certify within 10% of untraced (min of 5 interleaved rounds)."""

    def _traced():
        return _traced_certify(tmp_path / "pin.jsonl")

    # each round runs both sides twice: one settling call, one timed
    timings = interleaved_best_of(
        {"untraced": _certify, "traced": _traced}, rounds=5
    )
    untraced_time, untraced = timings["untraced"]
    traced_time, traced = timings["traced"]
    assert _result_key(traced) == _result_key(untraced)
    ratio = traced_time / untraced_time
    with capsys.disabled():
        print(
            f"\nobs enabled: untraced={untraced_time:.3f}s "
            f"traced={traced_time:.3f}s ratio={ratio:.3f}"
        )
    assert traced_time <= untraced_time * MAX_ENABLED_RATIO + NOISE_FLOOR, (
        f"enabled tracer overhead {ratio:.3f}x exceeds the "
        f"{MAX_ENABLED_RATIO}x pin (untraced {untraced_time:.3f}s, "
        f"traced {traced_time:.3f}s)"
    )
