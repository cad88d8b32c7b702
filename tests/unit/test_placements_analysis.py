"""Unit tests for repro.placements.analysis."""

from repro.placements.analysis import (
    is_uniform,
    layer_counts,
    uniform_dimensions,
)
from repro.placements.base import Placement
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


class TestLayerCounts:
    def test_linear_placement_flat(self):
        p = linear_placement(Torus(5, 3))
        for dim in range(3):
            assert layer_counts(p, dim).tolist() == [5] * 5

    def test_single_node(self, torus_4_2):
        p = Placement(torus_4_2, [torus_4_2.node_id((2, 1))])
        assert layer_counts(p, 0).tolist() == [0, 0, 1, 0]
        assert layer_counts(p, 1).tolist() == [0, 1, 0, 0]


class TestUniformity:
    def test_linear_is_uniform(self):
        assert is_uniform(linear_placement(Torus(4, 2)))

    def test_single_node_not_uniform(self, torus_4_2):
        assert not is_uniform(Placement(torus_4_2, [0]))

    def test_uniform_dimensions_partial(self, torus_4_2):
        # one processor per column, all in row 0: uniform along dim 1 only
        ids = torus_4_2.node_ids([(0, j) for j in range(4)])
        p = Placement(torus_4_2, ids)
        assert uniform_dimensions(p) == [1]
