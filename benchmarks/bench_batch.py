"""Benchmark batched multi-placement evaluation and the spectral plan cache.

The ISSUE-8 acceptance criteria, asserted live on every run:

* batched FFT evaluation of 64 placements on ``T_16^2`` is at least
  **5x** faster than 64 sequential warm ``edge_loads`` calls;
* warm same-plan calls show a plan-cache hit rate of at least **90%**
  in the obs metrics snapshot;
* the batched load matrix is **bit-identical** to the sequential rows
  after the integer snap-back.

The 64-placement workload is 4 linear coefficient families x 16 offsets
— 4 distinct difference sets, so the batch exercises the grouped path
(one stacked transform per family against its shared cached spectrum).
Committed machine-recorded numbers live in ``benchmarks/BENCH_batch.json``;
timings there are informational, the pins above must hold everywhere.

Run with::

    pytest benchmarks/bench_batch.py --benchmark-only
"""

import json
import pathlib

import numpy as np
import pytest
from _timing import interleaved_best_of

from repro.load.engine import LoadEngine, facade
from repro.load.plancache import PlanCache, using_plan_cache
from repro.obs import Tracer, using_tracer
from repro.placements.linear import linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.torus.topology import Torus

BASELINE = pathlib.Path(__file__).with_name("BENCH_batch.json")

K, D = 16, 2

#: 4 coefficient families x 16 offsets = 64 distinct coset placements
#: sharing 4 difference sets (all coefficients coprime to k=16).
COEFFICIENT_SETS = ((1, 1), (1, 3), (1, 5), (1, 7))
BATCH = 64

#: live pins (machine-independent ratios, not absolute timings).
MIN_SPEEDUP = 5.0
MIN_HIT_RATE = 0.90
#: interleaved rounds timing both sides of the speedup (minimum kept).
SPEEDUP_ROUNDS = 50


def _placements(torus=None):
    torus = torus if torus is not None else Torus(K, D)
    return [
        linear_placement(torus, coefficients=coeffs, offset=offset)
        for coeffs in COEFFICIENT_SETS
        for offset in range(torus.k)
    ]


def _time_both_sides(engine, placements, routing):
    """Sequential and batched evaluation timed in the same interleaved
    rounds, so a slow stretch of the machine cannot favour either side."""
    return interleaved_best_of(
        {
            "sequential": lambda: [
                engine.edge_loads(p, routing) for p in placements
            ],
            "batched": lambda: engine.edge_loads_many(placements, routing),
        },
        rounds=SPEEDUP_ROUNDS,
    )


def test_batch_bit_identical_to_sequential():
    placements = _placements()
    routing = OrderedDimensionalRouting(D)
    with using_plan_cache(PlanCache()):
        engine = LoadEngine("fft")
        batched = engine.edge_loads_many(placements, routing)
        sequential = np.stack(
            [engine.edge_loads(p, routing) for p in placements]
        )
    assert batched.shape == (BATCH, Torus(K, D).num_edges)
    assert np.array_equal(batched, sequential)


@pytest.mark.benchmark(group="engine-batch")
def test_batched_speedup_and_hit_rate(benchmark, capsys):
    """The ISSUE-8 acceptance check, measured on a warm plan cache."""
    placements = _placements()
    routing = OrderedDimensionalRouting(D)
    tracer = Tracer(label="bench-batch")
    with using_tracer(tracer), using_plan_cache(PlanCache()):
        engine = LoadEngine("fft")
        # warm: builds the plan, class tables, and all 4 family spectra
        engine.edge_loads_many(placements, routing)

        timed = _time_both_sides(engine, placements, routing)
        sequential_seconds, sequential = timed["sequential"]
        batched_seconds, batched = timed["batched"]
        # the pytest-benchmark record of the batched call
        benchmark(engine.edge_loads_many, placements, routing)
        snapshot = tracer.metrics.snapshot()

    assert np.array_equal(batched, np.stack(sequential))

    speedup = sequential_seconds / batched_seconds
    hits = snapshot["counters"]["plancache.hits"]
    misses = snapshot["counters"]["plancache.misses"]
    hit_rate = hits / (hits + misses)
    with capsys.disabled():
        print(
            f"\nbatch: sequential={sequential_seconds * 1e3:.2f}ms "
            f"batched={batched_seconds * 1e3:.2f}ms "
            f"speedup={speedup:.1f}x hit_rate={hit_rate:.3f}"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"batched evaluation only {speedup:.1f}x faster than {BATCH} "
        f"sequential warm edge_loads calls on T_{K}^{D} "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert hit_rate >= MIN_HIT_RATE, (
        f"plan-cache hit rate {hit_rate:.3f} below the "
        f"{MIN_HIT_RATE} pin ({hits} hits / {misses} misses)"
    )
    # the whole warm session needed exactly one plan build
    assert misses == 1


def test_batch_size_chunking_is_observable(monkeypatch):
    """Realized batch sizes land on the engine.batch_size histogram."""
    placements = _placements()
    routing = OrderedDimensionalRouting(D)
    tracer = Tracer(label="bench-batch-chunks")
    monkeypatch.setattr(facade, "_BLOCK", 24)
    with using_tracer(tracer), using_plan_cache(PlanCache()):
        LoadEngine("fft").edge_loads_many(placements, routing)
    hist = tracer.metrics.snapshot()["histograms"]["engine.batch_size"]
    # 64 placements in blocks of 24 -> 24 + 24 + 16
    assert hist["count"] == 3
    assert hist["total"] == BATCH


def test_baseline_pins():
    """The committed baseline's machine-independent facts must hold."""
    recorded = json.loads(BASELINE.read_text())
    assert recorded["k"] == K and recorded["d"] == D
    assert recorded["batch"] == BATCH
    assert recorded["families"] == [list(c) for c in COEFFICIENT_SETS]
    assert recorded["min_speedup"] == MIN_SPEEDUP
    assert recorded["min_hit_rate"] == MIN_HIT_RATE
    placements = _placements()
    assert len(placements) == BATCH
    emaxes = LoadEngine("fft").emax_many(
        placements, OrderedDimensionalRouting(D)
    )
    assert sorted({float(v) for v in emaxes}) == recorded["emax_values"]


def write_baseline() -> dict:
    """Measure and record the committed batched-evaluation baseline."""
    placements = _placements()
    routing = OrderedDimensionalRouting(D)
    tracer = Tracer(label="bench-batch-baseline")
    with using_tracer(tracer), using_plan_cache(PlanCache()):
        engine = LoadEngine("fft")
        engine.edge_loads_many(placements, routing)  # warm
        timed = _time_both_sides(engine, placements, routing)
        sequential_seconds, _ = timed["sequential"]
        batched_seconds, _ = timed["batched"]
        snapshot = tracer.metrics.snapshot()
        emaxes = engine.emax_many(placements, routing)
    hits = snapshot["counters"]["plancache.hits"]
    misses = snapshot["counters"]["plancache.misses"]
    baseline = {
        "description": (
            "Batched edge_loads_many vs sequential warm edge_loads on "
            "T_16^2 (4 linear coefficient families x 16 offsets). "
            "Timings are informational (machine-dependent); the "
            ">= 5x speedup, >= 90% plan-cache hit rate, and batched == "
            "sequential bit-identity are asserted live by "
            "bench_batch.py on every run."
        ),
        "k": K,
        "d": D,
        "batch": BATCH,
        "families": [list(c) for c in COEFFICIENT_SETS],
        "emax_values": sorted({float(v) for v in emaxes}),
        "min_speedup": MIN_SPEEDUP,
        "min_hit_rate": MIN_HIT_RATE,
        "measured": {
            "sequential_ms": round(sequential_seconds * 1e3, 3),
            "batched_ms": round(batched_seconds * 1e3, 3),
            "speedup": round(sequential_seconds / batched_seconds, 1),
            "hit_rate": round(hits / (hits + misses), 4),
        },
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
