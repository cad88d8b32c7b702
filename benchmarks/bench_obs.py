"""Benchmark the observability layer's overhead on a certify workload.

The telemetry charter (`docs/OBSERVABILITY.md`) promises that tracing is
free when nobody asked for it and cheap when they did.  This suite pins
both halves on the ``repro certify --k 6 --d 2`` workload — a serial
bound-mode certification of all ``C(36, 6)`` placements on ``T_6^2``:

* **disabled** — with no tracer installed every instrumentation site
  dispatches to ``NULL_TRACER``/``_NULL_SPAN``; a micro-benchmark of
  the null path proves the workload's handful of tracer touches cost
  under 2% of its wall-clock;
* **enabled** — a real ``Tracer`` writing JSONL must stay within 10%
  of the disabled run (plus an absolute floor so single-core CI
  scheduler jitter cannot flake the suite).

Both traced and untraced runs must certify bit-identical results — the
tracer is an observer, never a participant.
"""

from __future__ import annotations

import pytest
from _timing import best_of as _best_of

from repro.obs import JsonlTraceSink, Tracer, current_tracer, using_tracer
from repro.placements.exact_search import exact_global_minimum
from repro.torus.topology import Torus

K, D, SIZE = 6, 2, 6

#: enabled / disabled wall-clock ratio pin.
MAX_ENABLED_RATIO = 1.10
#: the disabled (null) path must cost < 2% of the workload.
MAX_DISABLED_FRACTION = 0.02
#: absolute jitter floor (seconds) so sub-second CI noise cannot flake.
NOISE_FLOOR = 0.25
#: null-path micro-benchmark iterations — a serial certify performs a
#: couple of dozen tracer touches, so 1000 bounds it from far above.
NULL_OPS = 1_000


def _certify():
    return exact_global_minimum(Torus(K, D), SIZE, progress=False)


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
    assert result.minimum_emax == 2.0


@pytest.mark.benchmark(group="obs-overhead")
def test_certify_traced(benchmark, tmp_path):
    def _traced():
        tracer = Tracer(
            sink=JsonlTraceSink(tmp_path / "bench.jsonl", label="bench"),
            label="bench",
        )
        with using_tracer(tracer):
            result = _certify()
        tracer.finish()
        return result

    result = benchmark(_traced)
    assert result.minimum_emax == 2.0


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
    """Traced certify within 10% of untraced (min of 3 runs each)."""
    untraced_time, untraced = _best_of(_certify)

    def _traced():
        tracer = Tracer(
            sink=JsonlTraceSink(tmp_path / "pin.jsonl", label="bench"),
            label="bench",
        )
        with using_tracer(tracer):
            result = _certify()
        tracer.finish()
        return result

    traced_time, traced = _best_of(_traced)
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
