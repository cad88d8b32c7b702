"""Micro-benchmarks of the FFT load backend vs the other engines.

The acceptance criterion behind these numbers: on every cell of
{T_32^2, T_12^3} x {ODR, UDR} x {linear, multilinear, random}, a warm
``auto`` call must take at most **1.2x** the fastest of ``vectorized``,
``fft`` and ``displacement``, i.e. ``auto``'s dispatch picks the best
backend, and the screen ``fft`` runs on random placements stays cheap.
``multilinear`` is the paper's two-class multiple linear placement, a
union of two cosets that ``auto`` sends to ``fft``.  The
committed machine-recorded throughputs live in
``benchmarks/BENCH_engines.json``; timings there are informational
(machines differ), while the exactness pins (``emax`` per configuration)
and the live ratios asserted here must hold everywhere.

Run with::

    pytest benchmarks/bench_fft.py --benchmark-only
"""

import functools
import json
import pathlib

import numpy as np
import pytest
from _timing import best_of, interleaved_best_of, warm_seconds

from repro.load.engine import LoadEngine
from repro.load.odr_loads import odr_edge_loads
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

BASELINE = pathlib.Path(__file__).with_name("BENCH_engines.json")

#: the tori the throughput comparison sweeps.
CONFIGS = [(16, 2), (32, 2)]

#: backends compared in the committed pairs/sec table.
BACKENDS = ("reference", "vectorized", "fft", "displacement")

#: the dispatch gate: warm ``auto`` over the fastest candidate backend.
AUTO_GATE = 1.2
GATE_CANDIDATES = ("vectorized", "fft", "displacement")
#: interleaved timing rounds per gate cell (per-backend minimum taken),
#: and the wall time over which cheap cells keep adding rounds.
GATE_ROUNDS = 15
GATE_SECONDS = 3.0
GATE_SEED = 20261017


def _pairs(placement) -> int:
    m = len(placement)
    return m * (m - 1)


@pytest.mark.benchmark(group="engine-fft")
@pytest.mark.parametrize("k,d", CONFIGS)
def test_fft_loads(benchmark, k, d):
    placement = linear_placement(Torus(k, d))
    routing = OrderedDimensionalRouting(d)
    engine = LoadEngine("fft")
    engine.edge_loads(placement, routing)  # warm template + plan caches
    loads = benchmark(engine.edge_loads, placement, routing)
    assert np.array_equal(loads, odr_edge_loads(placement))


@pytest.mark.benchmark(group="engine-fft")
def test_fft_udr_loads(benchmark):
    placement = linear_placement(Torus(16, 2))
    routing = UnorderedDimensionalRouting()
    engine = LoadEngine("fft")
    engine.edge_loads(placement, routing)
    loads = benchmark(engine.edge_loads, placement, routing)
    disp = LoadEngine("displacement").edge_loads(placement, routing)
    quantum = routing_load_quantum(routing, 2)
    assert np.array_equal(snap_loads(loads, quantum), snap_loads(disp, quantum))


@pytest.mark.parametrize("kind", ["linear", "multilinear", "random"])
@pytest.mark.parametrize("routing_name", ["odr", "udr"])
@pytest.mark.parametrize("k,d", [(32, 2), (12, 3)])
def test_auto_within_gate_of_best_backend(k, d, routing_name, kind, capsys):
    """Warm ``auto`` <= 1.2x the best backend, on every placement class.

    Every round times each engine once on the same warm placement; each
    engine keeps its minimum over at least 15 rounds and 3 s.  A
    candidate over 3x slower warm than the cheapest one cannot be the
    fastest and is left out of the rounds, which buys the others more
    samples.
    """
    torus = Torus(k, d)
    if kind == "linear":
        placement = linear_placement(torus)
    elif kind == "multilinear":
        placement = multiple_linear_placement(torus, 2)
    else:
        placement = random_placement(torus, k ** (d - 1), seed=GATE_SEED)
    if routing_name == "odr":
        routing = OrderedDimensionalRouting(d)
    else:
        routing = UnorderedDimensionalRouting()
    calls = {}
    for name in ("auto",) + GATE_CANDIDATES:
        engine = LoadEngine(name)
        engine.edge_loads(placement, routing)  # build caches / plans
        calls[name] = functools.partial(engine.edge_loads, placement, routing)
    warm = {name: best_of(calls[name])[0] for name in GATE_CANDIDATES}
    cheapest = min(warm.values())
    contenders = [n for n in GATE_CANDIDATES if warm[n] <= 3 * cheapest]
    timed = interleaved_best_of(
        {name: calls[name] for name in ["auto"] + contenders},
        rounds=GATE_ROUNDS,
        min_seconds=GATE_SECONDS,
    )
    best = {name: seconds for name, (seconds, _) in timed.items()}
    fastest = min(contenders, key=best.__getitem__)
    ratio = best["auto"] / best[fastest]
    with capsys.disabled():
        print(
            f"\nT_{k}^{d} {routing_name} {kind}: auto "
            f"{best['auto'] * 1e3:.3f}ms, best {fastest} "
            f"{best[fastest] * 1e3:.3f}ms, auto/best {ratio:.2f}"
        )
    assert ratio <= AUTO_GATE, (
        f"auto takes {ratio:.2f}x the fastest backend ({fastest}) on "
        f"T_{k}^{d} {routing_name} {kind} (gate {AUTO_GATE}x)"
    )


def test_baseline_exactness_pins():
    """The committed baseline's machine-independent facts must hold."""
    recorded = json.loads(BASELINE.read_text())
    for entry in recorded["configs"]:
        k, d = entry["k"], entry["d"]
        placement = linear_placement(Torus(k, d))
        routing = OrderedDimensionalRouting(d)
        assert entry["pairs"] == _pairs(placement)
        for name in BACKENDS:
            engine = LoadEngine(name)
            assert engine.emax(placement, routing) == entry["emax"], name


def write_baseline() -> dict:
    """Measure and record the committed pairs/sec-per-backend baseline."""
    configs = []
    for k, d in CONFIGS:
        placement = linear_placement(Torus(k, d))
        routing = OrderedDimensionalRouting(d)
        pairs = _pairs(placement)
        entry = {
            "torus": f"T_{k}^{d}",
            "k": k,
            "d": d,
            "placement": "linear",
            "routing": "ODR",
            "pairs": pairs,
            "emax": LoadEngine("reference").emax(placement, routing),
            "pairs_per_sec": {},
        }
        for name in BACKENDS:
            # the reference oracle is too slow for T_32^2's 1M+ pairs;
            # record it only on the small torus.
            if name == "reference" and k > 16:
                continue
            seconds = warm_seconds(
                LoadEngine(name),
                placement,
                routing,
                repeats=3 if name == "reference" else 15,
            )
            entry["pairs_per_sec"][name] = round(pairs / seconds)
        configs.append(entry)
    baseline = {
        "description": (
            "Warm min-of-N edge_loads throughput per backend on linear "
            "placements under ODR. pairs_per_sec is informational "
            "(machine-dependent); pairs and emax are exactness pins "
            "checked by bench_fft.py. The live gate is "
            "test_auto_within_gate_of_best_backend: warm auto <= 1.2x "
            "the fastest backend."
        ),
        "configs": configs,
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
