"""Unit tests for repro.torus.graph."""

import networkx as nx

from repro.torus.graph import to_networkx


class TestToNetworkx:
    def test_node_edge_counts(self, torus_4_2):
        g = to_networkx(torus_4_2)
        assert g.number_of_nodes() == 16
        assert g.number_of_edges() == 64

    def test_edge_attributes(self, torus_4_2):
        g = to_networkx(torus_4_2)
        data = g.get_edge_data(0, 1)
        assert set(data) == {"edge_id", "dim", "sign"}

    def test_strongly_connected(self, torus_4_2):
        assert nx.is_strongly_connected(to_networkx(torus_4_2))

    def test_removed_edges(self, torus_4_2):
        g_full = to_networkx(torus_4_2)
        g = to_networkx(torus_4_2, removed_edges=[0])
        assert g.number_of_edges() == g_full.number_of_edges() - 1

    def test_shortest_path_equals_lee(self, torus_5_2):
        g = to_networkx(torus_5_2)
        for u in range(0, 25, 6):
            for v in range(0, 25, 7):
                assert (
                    nx.shortest_path_length(g, u, v)
                    == torus_5_2.lee_distance_ids(u, v)
                )
