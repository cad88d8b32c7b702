"""Unit tests for repro.load.odr_loads — vectorized vs oracle."""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import LoadEngine
from repro.load.odr_loads import odr_edge_loads
from repro.placements.base import Placement
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.odr import OrderedDimensionalRouting
from repro.torus.topology import Torus


class TestAgainstOracle:
    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (4, 3), (3, 3)])
    def test_linear_placements(self, k, d):
        p = linear_placement(Torus(k, d))
        fast = odr_edge_loads(p)
        slow = edge_loads_reference(p, OrderedDimensionalRouting(d))
        assert np.allclose(fast, slow)

    def test_random_placement(self):
        torus = Torus(4, 3)
        p = random_placement(torus, 12, seed=5)
        assert np.allclose(
            odr_edge_loads(p),
            edge_loads_reference(p, OrderedDimensionalRouting(3)),
        )

    def test_multiple_linear(self):
        p = multiple_linear_placement(Torus(5, 2), 2)
        assert np.allclose(
            odr_edge_loads(p),
            edge_loads_reference(p, OrderedDimensionalRouting(2)),
        )

    @pytest.mark.parametrize("order", [(1, 0), (0, 1)])
    def test_custom_orders(self, order):
        p = linear_placement(Torus(4, 2))
        routing = DimensionOrderRouting(order)
        fast = LoadEngine("vectorized").edge_loads(p, routing)
        slow = edge_loads_reference(p, routing)
        assert np.allclose(fast, slow)


class TestProperties:
    def test_conservation(self):
        p = linear_placement(Torus(6, 2))
        loads = odr_edge_loads(p)
        coords = p.coords()
        m = len(p)
        idx = np.arange(m)
        pi, qi = np.meshgrid(idx, idx, indexing="ij")
        keep = pi != qi
        total = p.torus.lee_distances_array(coords[pi[keep]], coords[qi[keep]]).sum()
        assert loads.sum() == pytest.approx(float(total))

    def test_integer_loads(self):
        # single-path routing: every pair contributes exactly 1
        loads = odr_edge_loads(linear_placement(Torus(6, 3)))
        assert np.allclose(loads, np.round(loads))

    def test_weights(self):
        p = linear_placement(Torus(4, 2))
        m = len(p)
        w = np.full((m, m), 2.0)
        np.fill_diagonal(w, 0.0)
        assert np.allclose(odr_edge_loads(p, w), 2.0 * odr_edge_loads(p))

    def test_bad_weight_shape(self):
        p = linear_placement(Torus(4, 2))
        with pytest.raises(ValueError):
            odr_edge_loads(p, np.ones((3, 3)))

    def test_bad_order(self):
        with pytest.raises(RoutingError):
            DimensionOrderRouting((0, 0))

    def test_single_processor_zero_load(self):
        torus = Torus(4, 2)
        p = Placement(torus, [5])
        assert odr_edge_loads(p).sum() == 0.0

    def test_k2_torus(self):
        # degenerate radix: + tie every time a coordinate differs
        p = Placement(Torus(2, 2), [0, 3])
        fast = odr_edge_loads(p)
        slow = edge_loads_reference(p, OrderedDimensionalRouting(2))
        assert np.allclose(fast, slow)
