"""Micro-benchmarks of the core computational engines.

Not tied to a paper table — these track the throughput of the vectorized
load analyses, the bisection constructions, and the packet simulator, so
performance regressions in the machinery behind the experiments are
visible.
"""

import numpy as np
import pytest
from _timing import elapsed_seconds

from repro.bisection.dimension_cut import best_dimension_cut
from repro.bisection.hyperplane import hyperplane_bisection
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import LoadEngine
from repro.load.odr_loads import odr_edge_loads
from repro.load.udr_loads import udr_edge_loads
from repro.placements.linear import linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.workloads import complete_exchange_packets
from repro.torus.topology import Torus


@pytest.mark.benchmark(group="engine-odr")
@pytest.mark.parametrize("k,d", [(16, 2), (12, 3), (6, 4)])
def test_odr_loads(benchmark, k, d):
    placement = linear_placement(Torus(k, d))
    loads = benchmark(odr_edge_loads, placement)
    assert loads.max() > 0


@pytest.mark.benchmark(group="engine-udr")
@pytest.mark.parametrize("k,d", [(10, 2), (8, 3)])
def test_udr_loads(benchmark, k, d):
    placement = linear_placement(Torus(k, d))
    loads = benchmark(udr_edge_loads, placement)
    assert loads.max() > 0


@pytest.mark.benchmark(group="engine-displacement")
@pytest.mark.parametrize("k,d", [(16, 2), (12, 3)])
def test_displacement_loads(benchmark, k, d):
    placement = linear_placement(Torus(k, d))
    routing = OrderedDimensionalRouting(d)
    engine = LoadEngine("displacement")
    engine.edge_loads(placement, routing)  # warm the template cache
    loads = benchmark(engine.edge_loads, placement, routing)
    assert loads.max() > 0


@pytest.mark.benchmark(group="engine-displacement")
def test_displacement_cache_speedup(benchmark):
    """The ISSUE-1 acceptance check: displacement-cache >= 5x the oracle.

    Measured on ``T_16^2`` with a linear placement; the cache is timed
    cold (template construction included).
    """
    torus = Torus(16, 2)
    placement = linear_placement(torus)
    routing = OrderedDimensionalRouting(2)

    oracle_seconds, oracle = elapsed_seconds(
        lambda: edge_loads_reference(placement, routing)
    )

    def cold_displacement():
        return LoadEngine("displacement").edge_loads(placement, routing)

    loads = benchmark(cold_displacement)
    assert np.abs(loads - oracle).max() <= 1e-9
    cached_seconds = benchmark.stats.stats.min
    assert oracle_seconds >= 5 * cached_seconds, (
        f"displacement cache only {oracle_seconds / cached_seconds:.1f}x "
        "faster than the oracle (need >= 5x)"
    )


@pytest.mark.benchmark(group="engine-bisection")
@pytest.mark.parametrize("k,d", [(16, 2), (8, 3)])
def test_hyperplane_bisection(benchmark, k, d):
    placement = linear_placement(Torus(k, d))
    sweep = benchmark(hyperplane_bisection, placement)
    assert sweep.is_balanced


@pytest.mark.benchmark(group="engine-bisection")
@pytest.mark.parametrize("k,d", [(16, 2), (8, 3)])
def test_dimension_cut(benchmark, k, d):
    placement = linear_placement(Torus(k, d))
    cut = benchmark(best_dimension_cut, placement)
    assert cut.cut_size == 4 * k ** (d - 1)


@pytest.mark.benchmark(group="engine-simulator")
def test_simulator_complete_exchange(benchmark):
    torus = Torus(8, 2)
    placement = linear_placement(torus)
    routing = OrderedDimensionalRouting(2)

    def run():
        packets = complete_exchange_packets(placement, routing, seed=0)
        return CycleEngine(SimNetwork(torus)).run(packets)

    result = benchmark(run)
    assert result.delivered == len(placement) * (len(placement) - 1)
