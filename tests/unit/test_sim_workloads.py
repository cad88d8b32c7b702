"""Unit tests for repro.sim.workloads."""

import pytest

from repro.errors import InvalidParameterError
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.workloads import build_packets, complete_exchange_packets


class TestCompleteExchange:
    def test_packet_count(self, linear_4_2):
        pkts = complete_exchange_packets(
            linear_4_2, OrderedDimensionalRouting(2), seed=0
        )
        assert len(pkts) == 4 * 3

    def test_rounds_multiply(self, linear_4_2):
        pkts = complete_exchange_packets(
            linear_4_2, OrderedDimensionalRouting(2), seed=0, rounds=3
        )
        assert len(pkts) == 36
        assert len({p.packet_id for p in pkts}) == 36

    def test_stagger_sets_release(self, linear_4_2):
        pkts = complete_exchange_packets(
            linear_4_2, OrderedDimensionalRouting(2), seed=0, rounds=2, stagger=10
        )
        releases = {p.release_cycle for p in pkts}
        assert releases == {0, 10}

    def test_paths_minimal(self, linear_5_2):
        torus = linear_5_2.torus
        pkts = complete_exchange_packets(
            linear_5_2, UnorderedDimensionalRouting(), seed=1
        )
        for p in pkts:
            assert p.path_length == torus.lee_distance_ids(p.src, p.dst)

    def test_deterministic_given_seed(self, linear_4_2):
        a = complete_exchange_packets(linear_4_2, UnorderedDimensionalRouting(), seed=5)
        b = complete_exchange_packets(linear_4_2, UnorderedDimensionalRouting(), seed=5)
        assert [p.edge_ids for p in a] == [p.edge_ids for p in b]

    def test_invalid_rounds(self, linear_4_2):
        with pytest.raises(ValueError):
            complete_exchange_packets(
                linear_4_2, OrderedDimensionalRouting(2), rounds=0
            )


class TestBuildPackets:
    def test_explicit_pairs(self, linear_4_2):
        pkts = build_packets(
            linear_4_2, OrderedDimensionalRouting(2), [(0, 1), (2, 3)], seed=0
        )
        assert len(pkts) == 2
        ids = linear_4_2.node_ids
        assert pkts[0].src == ids[0] and pkts[0].dst == ids[1]

    def test_start_id_offset(self, linear_4_2):
        pkts = build_packets(
            linear_4_2, OrderedDimensionalRouting(2), [(0, 1)], start_id=100
        )
        assert pkts[0].packet_id == 100

    @pytest.mark.parametrize("pair", [(0, -1), (0, 4), (4, 0), (-5, 1)])
    def test_out_of_range_pair_is_named(self, linear_4_2, pair):
        with pytest.raises(InvalidParameterError, match=rf"pair \({pair[0]}, {pair[1]}\)"):
            build_packets(linear_4_2, OrderedDimensionalRouting(2), [(1, 2), pair])

    def test_malformed_pairs_rejected(self, linear_4_2):
        with pytest.raises(InvalidParameterError):
            build_packets(linear_4_2, OrderedDimensionalRouting(2), [(0, 1, 2)])

    def test_empty_pairs(self, linear_4_2):
        assert build_packets(linear_4_2, UnorderedDimensionalRouting(), []) == []

    def test_self_pair_is_a_zero_hop_packet(self, linear_4_2):
        (pkt,) = build_packets(linear_4_2, UnorderedDimensionalRouting(), [(2, 2)])
        assert pkt.edge_ids == () and pkt.src == pkt.dst
