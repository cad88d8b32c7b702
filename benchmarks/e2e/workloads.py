"""The benchmark workloads: seeded inputs, one closed-loop operation, checks.

A workload object is built from the run's seed (that is its set-up:
inputs only, nothing timed), warmed with one small untimed call, and then
driven one operation at a time by ``worker.py``:

* ``inputs(i)`` makes operation ``i``'s inputs outside the timed region;
* ``op(inputs)`` is the timed call into the program's public API;
* ``check(inputs, output)`` returns ``(outputs checked, failures)``;
* ``items(output)`` counts the units of work ``items_per_s`` divides;
* ``verify()`` runs the checks too slow for every operation, once.

Calls go through module attributes (``exact_search.exact_global_minimum``
rather than an imported name) so the traced run's wrappers, installed at
the attribute each caller resolves, see them.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

import oracles
import spec

from repro.load.engine.facade import LoadEngine
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.placements.random_placement import random_placement
from repro.placements.symmetry import automorphism_group
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.wormhole import WormholeEngine
from repro.torus.topology import Torus

catalog = importlib.import_module("repro.placements.catalog")
exact_search = importlib.import_module("repro.placements.exact_search")
local_search = importlib.import_module("repro.placements.search")
sim_workloads = importlib.import_module("repro.sim.workloads")

CERTIFY = oracles.CERTIFY_T6
CATALOG = oracles.CATALOG_T5


#: purposes that keep the random streams of one seed apart
OP, WARMUP, PROBE_WARM, PROBE_SAMPLE, CONFIG = range(5)


def rng_for(seed: int, purpose: int, *key: int) -> np.random.Generator:
    """An independent generator per (seed, purpose, ...) key."""
    return np.random.default_rng(np.random.SeedSequence([seed, purpose, *key]))


def routing_for(name: str, d: int):
    return OrderedDimensionalRouting(d) if name == "odr" else UnorderedDimensionalRouting()


def random_units(rng: np.random.Generator, k: int, d: int) -> list[int]:
    units = [c for c in range(1, k) if math.gcd(c, k) == 1]
    return [int(rng.choice(units)) for _ in range(d)]


class Workload:
    """Defaults for the optional hooks.

    ``counts`` gives per-layer counts read off one operation's output,
    ``layer_seconds`` benchmark-side timings of parts of one operation,
    and ``after_trace`` per-layer metrics measured once after the traced
    loop.
    """

    def counts(self, inputs, output) -> dict[str, float]:
        return {}

    def layer_seconds(self, output) -> dict[str, float]:
        return {}

    def after_trace(self, seed: int) -> dict[str, float]:
        return {}

    def verify(self) -> tuple[int, list[str]]:
        return 0, []


class Certify(Workload):
    """The T_6^2 certification; the instance is fixed, so the seed is unused."""

    def __init__(self, seed: int):
        self.torus = Torus(CERTIFY["k"], CERTIFY["d"])

    def warmup(self) -> None:
        automorphism_group(self.torus)
        exact_search.screen_initial_upper_bound(self.torus, CERTIFY["size"])

    def inputs(self, index: int):
        return self.torus

    def op(self, torus):
        bound, _ = exact_search.screen_initial_upper_bound(torus, CERTIFY["size"])
        return exact_search.exact_global_minimum(
            torus, CERTIFY["size"], initial_upper_bound=bound
        )

    def items(self, result) -> int:
        return result.num_placements

    def check(self, torus, result):
        return 1, oracles.check_certify(result)


class LocalSearch(Workload):
    K, SIZE, MAX_MOVES = 10, 10, 40

    def __init__(self, seed: int):
        self.seed = seed
        self.torus = Torus(self.K, 2)

    def warmup(self) -> None:
        rng = rng_for(self.seed, WARMUP)
        start = random_placement(self.torus, self.SIZE, seed=rng)
        local_search.local_search_placement(start, max_moves=2, seed=rng)

    def inputs(self, index: int):
        # a linear start never accepts a move, so starts are random
        rng = rng_for(self.seed, OP, index)
        start = random_placement(self.torus, self.SIZE, seed=rng)
        return start, int(rng.integers(2**31))

    def op(self, inputs):
        start, seed = inputs
        return local_search.local_search_placement(
            start, max_moves=self.MAX_MOVES, seed=seed
        )

    def items(self, result) -> int:
        return result.evaluations

    def check(self, inputs, result):
        return 1, oracles.check_local_search(inputs[0], result)

    def counts(self, inputs, result) -> dict[str, float]:
        return {
            "ls.evaluations": result.evaluations,
            "ls.accepted": len(result.trajectory) - 1,
        }


class Catalog(Workload):
    """The brute-force T_5^2 catalog; fixed instance, the seed is unused."""

    def __init__(self, seed: int):
        self.torus = Torus(CATALOG["k"], CATALOG["d"])

    def warmup(self) -> None:
        catalog.global_minimum_emax(self.torus, 2)

    def inputs(self, index: int):
        return self.torus

    def op(self, torus):
        return catalog.global_minimum_emax(torus, CATALOG["size"])

    def items(self, result) -> int:
        return result.num_placements

    def check(self, torus, result):
        return 1, oracles.check_catalog(result)


class Loads(Workload):
    """Seeded placements of the given classes through ``auto``.

    Every operation is one pass over the workload's cells with
    ``PER_CELL`` placements each, in a seeded shuffled order.  Linear and
    two-coset placements of one cell share the cell's seeded coefficient
    vector ``(1, ..., 1, u)`` and differ in their offsets, as families
    screened offset by offset do, so the cosets of a cell share one
    subgroup; random placements are fresh every time.  The 8
    (torus, routing) spectral plans fit well within the 32-plan LRU.
    """

    PER_CELL = 8
    #: backends ``auto`` is compared against (the ROADMAP's <= 1.2 gate)
    CANDIDATES = ("vectorized", "fft", "displacement")

    def __init__(self, seed: int, classes: tuple[str, ...]):
        self.seed = seed
        self.engine = LoadEngine("auto")
        self.cells = []
        rng = rng_for(seed, CONFIG)
        for tid, k, d, routing, cls in spec.loads_cells():
            if cls in classes:
                coefficients = [1] * (d - 1) + random_units(rng, k, 1)
                self.cells.append(
                    (spec.cell_name(tid, routing, cls), Torus(k, d),
                     routing_for(routing, d), cls, coefficients)
                )
        self.first = {}  # cell -> (placement, auto loads) from operation 0

    def placement(self, cell_index: int, rng: np.random.Generator):
        _, torus, _, cls, coefficients = self.cells[cell_index]
        k, d = torus.k, torus.d
        if cls == "coset":
            return linear_placement(torus, coefficients=coefficients, offset=int(rng.integers(k)))
        if cls == "multilinear":
            return multiple_linear_placement(
                torus, 2, coefficients=coefficients, base_offset=int(rng.integers(k))
            )
        return random_placement(torus, k ** (d - 1), seed=rng)

    def warmup(self) -> None:
        for index, (_, _, routing, _, _) in enumerate(self.cells):
            self.engine.edge_loads(self.placement(index, rng_for(self.seed, WARMUP, index)), routing)

    def inputs(self, index: int):
        jobs = [
            (cell_index, self.placement(cell_index, rng_for(self.seed, OP, index, cell_index, j)))
            for cell_index in range(len(self.cells))
            for j in range(self.PER_CELL)
        ]
        order = rng_for(self.seed, OP, index).permutation(len(jobs))
        return index, [jobs[i] for i in order]

    def op(self, inputs):
        """Loads per job plus wall seconds per cell (benchmark-side timing)."""
        _, jobs = inputs
        outputs = []
        cell_seconds = [0.0] * len(self.cells)
        for cell_index, placement in jobs:
            routing = self.cells[cell_index][2]
            start = time.perf_counter()
            loads = self.engine.edge_loads(placement, routing)
            cell_seconds[cell_index] += time.perf_counter() - start
            outputs.append(loads)
        return outputs, cell_seconds

    def items(self, output) -> int:
        return len(output[0])

    def layer_seconds(self, output) -> dict[str, float]:
        return {cell[0]: seconds for cell, seconds in zip(self.cells, output[1])}

    def check(self, inputs, output):
        index, jobs = inputs
        failures = []
        for (cell_index, placement), loads in zip(jobs, output[0]):
            routing = self.cells[cell_index][2]
            failures += oracles.check_loads(placement, routing, loads)
            if index == 0 and cell_index not in self.first:
                self.first[cell_index] = (placement, loads)
        return len(jobs), failures

    def verify(self):
        """Each cell's first placement against an independent backend.

        ``reference`` (the per-pair path oracle) where it is affordable,
        T_16^2 and T_8^3; ``displacement`` (path templates, no shared
        code with ``vectorized``) on T_32^2 and T_12^3.
        """
        failures = []
        for cell_index, (placement, loads) in sorted(self.first.items()):
            name, torus, routing, _, _ = self.cells[cell_index]
            oracle = "reference" if torus.num_nodes <= 512 else "displacement"
            expected = LoadEngine(oracle).edge_loads(placement, routing)
            if not oracles.same_loads(loads, expected, oracles.quantum(routing, torus.d)):
                failures.append(f"{name}: auto disagrees with {oracle} after snap")
        return len(self.first), failures

    def after_trace(self, seed: int) -> dict[str, float]:
        """Per cell, ``auto`` time over the fastest candidate backend's.

        One sample placement per cell; every backend first sees another
        placement of the same cell, so plans are warm and the comparison
        is of the per-placement cost a stream of that cell pays.
        """
        engines = {name: LoadEngine(name) for name in ("auto",) + self.CANDIDATES}
        ratios = {}
        for cell_index, (name, _, routing, _, _) in enumerate(self.cells):
            warm = self.placement(cell_index, rng_for(seed, PROBE_WARM, cell_index))
            sample = self.placement(cell_index, rng_for(seed, PROBE_SAMPLE, cell_index))
            seconds = {}
            for backend, engine in engines.items():
                engine.edge_loads(warm, routing)
                start = time.perf_counter()
                engine.edge_loads(sample, routing)
                seconds[backend] = time.perf_counter() - start
            best = min(seconds[b] for b in self.CANDIDATES)
            ratios[f"{name}.auto_over_best"] = seconds["auto"] / best
        return ratios


class Simulate(Workload):
    """Complete exchanges of seeded linear placements, both simulators."""

    #: (k, d, routing, rounds, also run through the wormhole engine)
    EXCHANGES = ((8, 3, "udr", 1, False), (16, 2, "odr", 4, True), (12, 2, "odr", 2, True))

    def __init__(self, seed: int):
        self.seed = seed
        rng = rng_for(seed, CONFIG)
        self.configs = []
        for k, d, routing, rounds, wormhole in self.EXCHANGES:
            torus = Torus(k, d)
            placement = linear_placement(
                torus, coefficients=random_units(rng, k, d), offset=int(rng.integers(k))
            )
            self.configs.append((placement, routing_for(routing, d), rounds, wormhole))

    def warmup(self) -> None:
        torus = Torus(4, 2)
        placement = linear_placement(torus)
        packets = sim_workloads.complete_exchange_packets(
            placement, OrderedDimensionalRouting(2), seed=0
        )
        CycleEngine(SimNetwork(torus)).run(packets)
        WormholeEngine(torus).run(packets)

    def inputs(self, index: int):
        return [int(rng_for(self.seed, OP, index, j).integers(2**31)) for j in range(len(self.configs))]

    def op(self, seeds):
        """Build the packets and run them; packet building is part of the work."""
        runs = []
        for (placement, routing, rounds, wormhole), seed in zip(self.configs, seeds):
            packets = sim_workloads.complete_exchange_packets(
                placement, routing, seed=seed, rounds=rounds
            )
            cycle = CycleEngine(SimNetwork(placement.torus)).run(packets)
            worm = WormholeEngine(placement.torus).run(packets) if wormhole else None
            runs.append((len(packets), cycle, worm))
        return runs

    def items(self, runs) -> int:
        return sum(n * (2 if worm is not None else 1) for n, _, worm in runs)

    def check(self, seeds, runs):
        failures = []
        for (placement, routing, rounds, _), (n, cycle, worm) in zip(self.configs, runs):
            failures += oracles.check_exchange(placement, routing, rounds, n, cycle, worm)
        return len(runs), failures

    def counts(self, seeds, runs) -> dict[str, float]:
        return {
            "sim.max_queue": max(cycle.max_queue_length for _, cycle, _ in runs),
            "sim.wormhole_cycles": sum(w.cycles for _, _, w in runs if w is not None),
        }


WORKLOADS = {
    "certify": Certify,
    "local_search": LocalSearch,
    "catalog": Catalog,
    "loads_coset": lambda seed: Loads(seed, spec.COSET_CLASSES),
    "loads_noncoset": lambda seed: Loads(seed, spec.NONCOSET_CLASSES),
    "simulate": Simulate,
}
