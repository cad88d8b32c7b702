"""Unit tests for repro.sim.network."""

import pytest

from repro.errors import SimulationError
from repro.sim.network import SimNetwork


class TestSimNetwork:
    def test_all_alive_by_default(self, torus_4_2):
        net = SimNetwork(torus_4_2)
        assert net.num_failed == 0
        assert net.alive.all()

    def test_failures_marked(self, torus_4_2):
        net = SimNetwork(torus_4_2, failed_edge_ids=[0, 5])
        assert net.num_failed == 2
        assert not net.alive[0] and not net.alive[5]

    def test_invalid_failure_id(self, torus_4_2):
        with pytest.raises(SimulationError):
            SimNetwork(torus_4_2, failed_edge_ids=[torus_4_2.num_edges])

    def test_check_path_alive(self, torus_4_2):
        net = SimNetwork(torus_4_2, failed_edge_ids=[3])
        assert net.check_path_alive([0, 1, 2])
        assert not net.check_path_alive([2, 3])
