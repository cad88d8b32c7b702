"""The benchmark's declared workloads and metrics: the one source for
``BENCHMARK.json`` and for the names ``run.py`` prints.

``BENCHMARK.json`` has a fixed schema (names, units, directions,
bounds, one-line reasons).  The metadata it has no room for lives here: each workload's unit of work and
closed-loop shape, and each per-layer metric's tag (``exact`` counts
repeat bit for bit for a given seed, ``timed`` values do not), the
module it measures, and the end-to-end metric and workload it should
move.  Regenerate the JSON with ``python3 benchmarks/e2e/spec.py >
BENCHMARK.json``; ``test_e2e.py`` fails when the two disagree.

Every run reports every metric of its mode, so a per-layer metric of a
layer a workload never reaches reads 0 there: that zero is itself a
measurement (for example, ``simulate`` bypasses the load engine).
Stdlib only: ``run.py`` imports this module without the package.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: seconds one run measures; every workload fits at least two
#: operations into it (a T_6^2 certification takes about 6 s).
RUN_SECONDS = 10

#: name -> (why, unit of work counted by items_per_s, closed-loop operation)
WORKLOADS = {
    "certify": (
        "T_6^2 n=6 bound-mode certification (screen, then exact search): "
        "ODR add-delta kernel, symmetry canonicity and separator pruning",
        "placements certified (C(36,6) per operation)",
        "screen_initial_upper_bound then exact_global_minimum, the "
        "sequence `repro certify` runs; inputs do not depend on the seed",
    ),
    "local_search": (
        "T_10^2 n=10 local search from seeded random starts: the ODR "
        "swap-delta kernel, with no load-engine call",
        "objective evaluations",
        "one local_search_placement(max_moves=40) from a fresh random start",
    ),
    "catalog": (
        "brute-force T_5^2 n=4 catalog: 12,650 non-coset placements through "
        "LoadEngine('fft').emax_many and the spectral plan cache",
        "placements evaluated",
        "one global_minimum_emax(T_5^2, 4); inputs do not depend on the seed",
    ),
    "loads_coset": (
        "seeded linear (coset) placements through auto edge_loads on "
        "T_16^2, T_32^2, T_8^3, T_12^3 x ODR/UDR: what coset dispatch speeds up",
        "placements evaluated",
        "one pass: 8 seeded offsets of the cell's seeded subgroup per "
        "(torus, routing) cell, shuffled",
    ),
    "loads_noncoset": (
        "seeded two-coset and random placements through auto edge_loads on "
        "the same grid: coset dispatch must leave it unchanged",
        "placements evaluated",
        "one pass: 8 two-coset (seeded offsets) or fresh random placements "
        "per (torus, routing, class) cell, shuffled",
    ),
    "simulate": (
        "complete exchanges through the cycle and wormhole simulators: "
        "bypasses the load engine, so load work must not move it",
        "packets simulated (summed over both engines)",
        "one pass: T_8^3 UDR (cycle), T_16^2 ODR x4 and T_12^2 ODR x2 "
        "(cycle and wormhole), packets rebuilt each pass",
    ),
}

#: name -> (unit, better, bound, meaning); all measured with tracing off.
#: Times are scaled to reference host speed (see speed.py).
END_TO_END = {
    "op_ms": (
        "ms", "lower", 0.2,
        "median latency of one closed-loop operation, at reference host speed",
    ),
    "items_per_s": (
        "1/s", "higher", 0.2,
        "median units of work per second of one operation, at reference host speed",
    ),
    "peak_rss_mb": ("MB", "lower", 0.1, "peak resident memory of the run"),
    "setup_s": (
        "s", "lower", 0.25,
        "median of 5 cold starts (interpreter, imports, inputs, one untimed "
        "warm-up call), at reference host speed",
    ),
}

TORI = (("t16x2", 16, 2), ("t32x2", 32, 2), ("t8x3", 8, 3), ("t12x3", 12, 3))
ROUTINGS = ("odr", "udr")
COSET_CLASSES = ("coset",)
NONCOSET_CLASSES = ("multilinear", "random")

_SEARCH = ("certify",)
_ENGINE_USERS = ("certify", "catalog", "loads_coset", "loads_noncoset")
_LOADS = ("loads_coset", "loads_noncoset")

#: wrapped layers: id -> (module measured, e2e metric moved, workloads,
#: whether its call count is reported)
LAYERS = {
    "add_delta": ("repro.load.odr_loads", "op_ms", _SEARCH, True),
    "canonicity": ("repro.placements.symmetry", "op_ms", _SEARCH, True),
    "separator": ("repro.bisection.separator", "op_ms", _SEARCH, True),
    "screen": ("repro.placements.exact_search", "op_ms", _SEARCH, False),
    "exact_search": ("repro.placements.exact_search", "op_ms", _SEARCH, False),
    "swap_delta": (
        "repro.load.odr_loads", "items_per_s", ("local_search",), True,
    ),
    "local_search": (
        "repro.placements.search", "items_per_s", ("local_search",), False,
    ),
    "catalog": (
        "repro.placements.catalog", "items_per_s", ("catalog",), False,
    ),
    "engine.vectorized": (
        "repro.load.engine.vectorized", "items_per_s", _LOADS, True,
    ),
    "engine.fft": ("repro.load.engine.fft", "items_per_s", _ENGINE_USERS, True),
    "engine.displacement": (
        "repro.load.engine.displacement", "items_per_s", _LOADS, True,
    ),
    "engine.reference": (
        "repro.load.engine.reference", "items_per_s", _LOADS, True,
    ),
    "sim.build": ("repro.sim.workloads", "items_per_s", ("simulate",), False),
    "sim.cycle": ("repro.sim.engine", "items_per_s", ("simulate",), False),
    "sim.wormhole": ("repro.sim.wormhole", "items_per_s", ("simulate",), False),
}

#: counts the program itself keeps, read per operation from the tracer's
#: Metrics snapshot: name -> (better, module, e2e metric moved, workloads)
PROGRAM_COUNTS = {
    "search.pair_updates": ("lower", "repro.placements.exact_search", "op_ms", _SEARCH),
    "search.leaf_orbits": ("lower", "repro.placements.exact_search", "op_ms", _SEARCH),
    "search.variant_evaluations": ("lower", "repro.placements.exact_search", "op_ms", _SEARCH),
    "search.canonicity_checks": ("lower", "repro.placements.exact_search", "op_ms", _SEARCH),
    "search.subtrees_pruned_emax": ("higher", "repro.placements.exact_search", "op_ms", _SEARCH),
    "search.subtrees_pruned_separator": ("higher", "repro.placements.exact_search", "op_ms", _SEARCH),
    "search.variants_dropped": ("higher", "repro.placements.exact_search", "op_ms", _SEARCH),
    "engine.fft.fast_path": ("higher", "repro.load.engine.fft", "items_per_s", _ENGINE_USERS),
    "engine.fft.general_path": ("lower", "repro.load.engine.fft", "items_per_s", _ENGINE_USERS),
    "engine.fft.snap_fallbacks": ("lower", "repro.load.engine.fft", "items_per_s", _ENGINE_USERS),
    "plancache.hits": ("higher", "repro.load.plancache", "items_per_s", _ENGINE_USERS),
    "plancache.misses": ("lower", "repro.load.plancache", "items_per_s", _ENGINE_USERS),
    "sim.packets_routed": ("higher", "repro.sim.engine", "items_per_s", ("simulate",)),
    "sim.cycles": ("lower", "repro.sim.engine", "items_per_s", ("simulate",)),
}

#: counts the benchmark reads off results and its own wrappers
BENCH_COUNTS = {
    "routing.paths_calls": ("lower", "repro.routing", "items_per_s", ("simulate",)),
    "sim.max_queue": ("lower", "repro.sim.engine", "items_per_s", ("simulate",)),
    "sim.wormhole_cycles": ("lower", "repro.sim.wormhole", "items_per_s", ("simulate",)),
    "ls.evaluations": ("higher", "repro.placements.search", "items_per_s", ("local_search",)),
    "ls.accepted": ("higher", "repro.placements.search", "items_per_s", ("local_search",)),
}


def loads_cells() -> list[tuple[str, int, int, str, str]]:
    """Every ``(torus_id, k, d, routing, class)`` cell of the load grid."""
    return [
        (tid, k, d, routing, cls)
        for tid, k, d in TORI
        for routing in ROUTINGS
        for cls in COSET_CLASSES + NONCOSET_CLASSES
    ]


def cell_name(tid: str, routing: str, cls: str) -> str:
    return f"loads.{tid}.{routing}.{cls}"


def per_layer() -> dict[str, dict[str, object]]:
    """Every per-layer metric with its unit, direction and metadata."""
    metrics: dict[str, dict[str, object]] = {}

    def add(name, unit, better, tag, layer, moves, workloads):
        metrics[name] = {
            "unit": unit, "better": better, "tag": tag, "layer": layer,
            "moves": moves, "workloads": list(workloads),
        }

    for layer_id, (module, moves, workloads, counted) in LAYERS.items():
        if counted:
            add(f"{layer_id}.calls", "count", "lower", "exact", module, moves, workloads)
        add(f"{layer_id}.pct", "%", "lower", "timed", module, moves, workloads)
    add("bench.pct", "%", "lower", "timed", "benchmarks/e2e", "op_ms", WORKLOADS)
    for name, (better, module, moves, workloads) in {
        **PROGRAM_COUNTS, **BENCH_COUNTS
    }.items():
        add(name, "count", better, "exact", module, moves, workloads)
    for tid, _k, _d, routing, cls in loads_cells():
        workload = "loads_coset" if cls in COSET_CLASSES else "loads_noncoset"
        cell = cell_name(tid, routing, cls)
        add(f"{cell}.pct", "%", "lower", "timed", "repro.load.engine",
            "items_per_s", (workload,))
        add(f"{cell}.auto_over_best", "ratio", "lower", "timed",
            "repro.load.engine.facade", "items_per_s", (workload,))
    add("trace_overhead", "ratio", "lower", "timed", "repro.obs.tracer",
        "op_ms", WORKLOADS)
    return metrics


def benchmark_json() -> dict[str, object]:
    """The ``BENCHMARK.json`` document this module declares."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": meta["unit"], "better": meta["better"]}
            for name, meta in per_layer().items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
