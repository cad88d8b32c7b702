"""Unit tests for repro.load.path_table — one row per displacement.

The closed-form rows (dimension orders, UDR) must hold exactly the paths
``routing.paths`` enumerates, hop for hop and weight for weight; rows are
built only when a call needs them.  Complete exchange on a large enough
placement is counted ring by ring instead, and the trace says which path
ran.
"""

import itertools

import numpy as np
import pytest

from repro.load.engine import LoadEngine
from repro.load.odr_loads import odr_edge_loads
from repro.load.path_table import PathTable, has_closed_form
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.load.udr_loads import udr_edge_loads
from repro.obs import Tracer, using_tracer
from repro.placements.random_placement import random_placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

TORI = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3), (3, 4)]


def _closed_form_routings(d):
    orders = [DimensionOrderRouting(o) for o in itertools.permutations(range(d))]
    return orders + [UnorderedDimensionalRouting()]


def _rows(table, quantum):
    """Each row as a sorted list of ``(hop, numerator over quantum)``."""
    table.codes(table.node_ext[:1], table.node_ext)  # fills every row
    if table.weights is None:
        numerators = np.ones(table.hops.shape, dtype=np.int64)
    else:
        numerators = np.rint(table.weights * quantum).astype(np.int64)
    rows = []
    for hops, nums in zip(table.hops, numerators):
        real = hops % table.slots != table.pad
        rows.append(sorted(zip(hops[real].tolist(), nums[real].tolist())))
    return rows


class TestClosedForms:
    @pytest.mark.parametrize("k,d", TORI)
    def test_closed_form_rows_equal_enumerated_rows(self, k, d):
        torus = Torus(k, d)
        for routing in _closed_form_routings(d):
            quantum = routing_load_quantum(routing, d)
            closed = PathTable(torus, routing)
            enumerated = PathTable(torus, routing, enumerate_paths=True)
            assert not closed.enumerated and enumerated.enumerated
            assert _rows(closed, quantum) == _rows(enumerated, quantum), (
                routing.name
            )
            assert np.array_equal(closed.paths, enumerated.paths)

    def test_which_routings_have_closed_forms(self):
        assert has_closed_form(OrderedDimensionalRouting(3), 3)
        assert has_closed_form(UnorderedDimensionalRouting(), 2)
        assert not has_closed_form(DimensionOrderRouting((1, 0)), 3)
        assert not has_closed_form(AllMinimalPaths(), 2)
        assert PathTable(Torus(3, 2), AllMinimalPaths()).enumerated


class TestRows:
    def test_rows_fill_lazily(self):
        torus = Torus(6, 2)
        table = PathTable(torus, UnorderedDimensionalRouting())
        assert not table.filled.any()
        src = table.node_ext[[0, 7]]
        dst = table.node_ext[[14, 21]]  # (2, 2) twice
        codes = table.codes(src, dst)
        assert codes.tolist() == [14, 14]
        assert np.flatnonzero(table.filled).tolist() == [14]

    def test_enumerated_rows_widen_the_table(self):
        torus = Torus(5, 2)
        table = PathTable(torus, AllMinimalPaths())
        assert table.width == 0
        table.codes(table.node_ext[[0]], table.node_ext[[torus.node_id((1, 0))]])
        narrow = table.width
        table.codes(table.node_ext[[0]], table.node_ext[[torus.node_id((2, 2))]])
        assert table.width > narrow
        # the earlier row keeps its hops, padded out to the new width
        assert np.count_nonzero(table.hops[torus.node_id((1, 0))] != table.pad) == 1


def _paths_taken(tracer):
    """``(ring calls, pair calls)`` of the path tables under ``tracer``."""
    counters = tracer.metrics.snapshot()["counters"]
    return (
        counters.get("engine.table.rings", 0),
        counters.get("engine.table.pairs", 0),
    )


class TestRingDispatch:
    """Complete exchange on a large enough placement goes ring by ring."""

    def test_tiny_placement_takes_the_pair_apply(self):
        torus = Torus(6, 2)
        placement = random_placement(torus, 3, seed=1)
        tracer = Tracer()
        with using_tracer(tracer):
            odr_edge_loads(placement)
            udr_edge_loads(placement)
        assert _paths_taken(tracer) == (0, 2)

    def test_t12_cubed_random_takes_the_rings(self):
        torus = Torus(12, 3)
        placement = random_placement(torus, 144, seed=1)
        tracer = Tracer()
        with using_tracer(tracer):
            odr = odr_edge_loads(placement)
            udr = udr_edge_loads(placement)
            auto = LoadEngine("auto").edge_loads(
                placement, OrderedDimensionalRouting(3)
            )
        assert _paths_taken(tracer) == (3, 0)
        assert np.array_equal(auto, odr)
        quantum = routing_load_quantum(UnorderedDimensionalRouting(), 3)
        assert np.array_equal(udr, snap_loads(udr, quantum))

    def test_weighted_traffic_and_displacement_never_take_the_rings(self):
        torus = Torus(8, 3)
        placement = random_placement(torus, 64, seed=2)
        routing = OrderedDimensionalRouting(3)
        traffic = np.ones((64, 64)) - np.eye(64)
        tracer = Tracer()
        with using_tracer(tracer):
            rings = LoadEngine("vectorized").edge_loads(placement, routing)
            weighted = LoadEngine("vectorized").edge_loads(
                placement, routing, pair_weights=traffic
            )
            enumerated = LoadEngine("displacement").edge_loads(
                placement, routing
            )
        assert _paths_taken(tracer) == (1, 2)
        assert np.array_equal(rings, weighted)
        assert np.array_equal(rings, enumerated)
        assert PathTable(torus, routing).takes_rings(64)
        assert not PathTable(torus, routing, enumerate_paths=True).takes_rings(64)
