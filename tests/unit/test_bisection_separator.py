"""Unit tests for repro.bisection.separator."""

import numpy as np

from repro.bisection.separator import separator_edges, separator_size
from repro.torus.subtorus import principal_subtorus_nodes


class TestSeparatorEdges:
    def test_singleton(self, torus_4_2):
        edges = separator_edges(torus_4_2, [0])
        assert edges.size == 8  # 4d = 8 for d=2
        # every edge touches node 0 on exactly one side
        for eid in edges:
            e = torus_4_2.edges.decode(int(eid))
            assert (e.tail == 0) != (e.head == 0)

    def test_symmetric_in_complement(self, torus_4_2):
        s = np.array([0, 1, 5, 6])
        comp = np.setdiff1d(np.arange(16), s)
        assert np.array_equal(
            separator_edges(torus_4_2, s), separator_edges(torus_4_2, comp)
        )

    def test_both_directions_present(self, torus_4_2):
        edges = set(separator_edges(torus_4_2, [0, 1]).tolist())
        for eid in list(edges):
            assert torus_4_2.edges.reverse(eid) in edges

    def test_two_adjacent_nodes(self, torus_4_2):
        # 2 nodes, 8 incident directed edges each, minus the 2 internal
        assert separator_size(torus_4_2, [0, 1]) == 16 - 2 * 1 - 2 * 1

    def test_layer(self, torus_6_3):
        layer = principal_subtorus_nodes(torus_6_3, 0, 2)
        # a full layer has boundary 2 cuts x 2k^(d-1)
        assert separator_size(torus_6_3, layer) == 4 * 36
