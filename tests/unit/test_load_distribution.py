"""Unit tests for repro.load.distribution."""

from repro.load.distribution import per_dimension_max
from repro.load.odr_loads import odr_edge_loads
from repro.load import formulas
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


class TestPerDimension:
    def test_shapes(self):
        torus = Torus(4, 3)
        loads = odr_edge_loads(linear_placement(torus))
        assert per_dimension_max(torus, loads).shape == (3,)

    def test_boundary_vs_interior_exp7_structure(self):
        torus = Torus(8, 3)
        dm = per_dimension_max(torus, odr_edge_loads(linear_placement(torus)))
        boundary = max(dm[0], dm[-1])
        assert boundary == formulas.odr_linear_emax_boundary(8, 3)
        assert dm[1] == formulas.odr_linear_emax_interior(8, 3)
        assert dm.max() == boundary
