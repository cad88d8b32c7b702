"""Unit tests for repro.load.udr_loads — exact fractional loads vs oracle."""

import numpy as np
import pytest

from repro.load.edge_loads import edge_loads_reference
from repro.load.udr_loads import udr_edge_loads
from repro.placements.base import Placement
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


class TestAgainstOracle:
    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (3, 3), (4, 3)])
    def test_linear_placements(self, k, d):
        p = linear_placement(Torus(k, d))
        fast = udr_edge_loads(p)
        slow = edge_loads_reference(p, UnorderedDimensionalRouting())
        assert np.allclose(fast, slow)

    def test_random_placement(self):
        p = random_placement(Torus(4, 3), 10, seed=9)
        assert np.allclose(
            udr_edge_loads(p),
            edge_loads_reference(p, UnorderedDimensionalRouting()),
        )

    def test_multiple_linear(self):
        p = multiple_linear_placement(Torus(4, 2), 2)
        assert np.allclose(
            udr_edge_loads(p),
            edge_loads_reference(p, UnorderedDimensionalRouting()),
        )

    def test_even_k_with_ties(self):
        p = Placement(Torus(4, 2), [0, 10])  # (0,0) and (2,2): double tie
        assert np.allclose(
            udr_edge_loads(p),
            edge_loads_reference(p, UnorderedDimensionalRouting()),
        )


class TestProperties:
    def test_conservation(self):
        p = linear_placement(Torus(5, 3))
        loads = udr_edge_loads(p)
        coords = p.coords()
        m = len(p)
        idx = np.arange(m)
        pi, qi = np.meshgrid(idx, idx, indexing="ij")
        keep = pi != qi
        total = p.torus.lee_distances_array(coords[pi[keep]], coords[qi[keep]]).sum()
        assert loads.sum() == pytest.approx(float(total))

    def test_udr_spreads_vs_odr(self):
        from repro.load.odr_loads import odr_edge_loads

        p = linear_placement(Torus(6, 2))
        assert udr_edge_loads(p).max() <= odr_edge_loads(p).max() + 1e-9

    def test_single_dim_pair_integer_load(self):
        # pairs differing in one dim have a single path: integer loads
        torus = Torus(5, 2)
        p = Placement(torus, torus.node_ids([(0, 0), (0, 2)]))
        loads = udr_edge_loads(p)
        used = loads[loads > 0]
        assert np.allclose(used, 1.0)
