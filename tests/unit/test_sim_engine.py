"""Unit tests for repro.sim.engine — the cycle-accurate core."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet


def _path_edges(torus, coords_seq):
    """Edge ids along consecutive coordinates."""
    ei = torus.edges
    ids = [torus.node_id(c) for c in coords_seq]
    return tuple(
        ei.edge_between(ids[i], ids[i + 1]) for i in range(len(ids) - 1)
    )


class TestBasicDelivery:
    def test_single_packet_latency_equals_hops(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1), (0, 2)])
        pkt = Packet(0, torus_4_2.node_id((0, 0)), torus_4_2.node_id((0, 2)), edges)
        result = CycleEngine(SimNetwork(torus_4_2)).run([pkt])
        assert result.delivered == 1
        assert pkt.latency == 2
        assert result.cycles == 2
        assert result.max_link_count == 1

    def test_zero_hop_packet(self, torus_4_2):
        pkt = Packet(0, 3, 3, ())
        result = CycleEngine(SimNetwork(torus_4_2)).run([pkt])
        assert result.delivered == 1
        assert pkt.latency == 0
        assert result.cycles == 0

    def test_empty_workload(self, torus_4_2):
        result = CycleEngine(SimNetwork(torus_4_2)).run([])
        assert result.delivered == 0
        assert result.cycles == 0


class TestContention:
    def test_shared_link_serializes(self, torus_4_2):
        # two packets over the same single link: second waits one cycle
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        pkts = [
            Packet(0, 0, 1, edges),
            Packet(1, 0, 1, edges),
        ]
        result = CycleEngine(SimNetwork(torus_4_2)).run(pkts)
        assert sorted(p.latency for p in pkts) == [1, 2]
        assert result.link_counts[edges[0]] == 2
        assert result.max_queue_length == 2

    def test_disjoint_links_parallel(self, torus_4_2):
        a = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        b = _path_edges(torus_4_2, [(1, 0), (1, 1)])
        pkts = [Packet(0, 0, 1, a), Packet(1, 4, 5, b)]
        result = CycleEngine(SimNetwork(torus_4_2)).run(pkts)
        assert all(p.latency == 1 for p in pkts)
        assert result.cycles == 1

    def test_release_cycle_staggering(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        pkts = [
            Packet(0, 0, 1, edges, release_cycle=0),
            Packet(1, 0, 1, edges, release_cycle=5),
        ]
        result = CycleEngine(SimNetwork(torus_4_2)).run(pkts)
        assert pkts[0].latency == 1
        assert pkts[1].latency == 1
        assert result.cycles == 6


class TestFailures:
    def test_path_over_failed_link_rejected(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        net = SimNetwork(torus_4_2, failed_edge_ids=[edges[0]])
        with pytest.raises(SimulationError):
            CycleEngine(net).run([Packet(0, 0, 1, edges)])

    def test_max_cycles_guard(self, torus_4_2):
        edges = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        pkt = Packet(0, 0, 1, edges, release_cycle=100)
        with pytest.raises(SimulationError):
            CycleEngine(SimNetwork(torus_4_2), max_cycles=10).run([pkt])


class TestResultMetrics:
    def test_throughput(self, torus_4_2):
        a = _path_edges(torus_4_2, [(0, 0), (0, 1)])
        result = CycleEngine(SimNetwork(torus_4_2)).run([Packet(0, 0, 1, a)])
        assert result.throughput == 1.0

    def test_latencies_array(self, torus_4_2):
        a = _path_edges(torus_4_2, [(0, 0), (0, 1), (0, 2)])
        result = CycleEngine(SimNetwork(torus_4_2)).run([Packet(0, 0, 2, a)])
        assert np.array_equal(result.latencies, [2])
        assert result.mean_latency == 2.0


#: (placement, k, d, routing, seed, rounds, stagger, scrambled) of a
#: ``sim_exchange`` run -> (cycles, sum of latencies, latencies weighted
#: by packet position, link counts weighted by edge id, max queue,
#: delivered).  Recorded from the per-hop implementation the current
#: engine replaced; the run must reproduce it exactly.
PINNED_RUNS = [
    (("linear", 6, 2, "odr", 1, 2, 0, False), (11, 348, 11710, 15624, 6, 60)),
    (("random", 5, 2, "udr", 2, 3, 2, False), (21, 1936, 283351, 33988, 10, 270)),
    (("linear", 4, 3, "udr", 3, 1, 0, False), (10, 1182, 148352, 149748, 7, 240)),
    (("twoclass", 8, 2, "rev", 4, 2, 5, True), (34, 6723, 1716870, 262912, 16, 481)),
    (("linear", 3, 4, "udr", 5, 1, 0, False), (10, 3462, 1237108, 632420, 7, 702)),
    (("random", 4, 3, "odr", 6, 2, 1, True), (15, 500, 29842, 51208, 8, 113)),
    (("linear", 7, 2, "udr", 7, 2, 3, False), (11, 383, 16067, 32852, 3, 84)),
    (("twoclass", 6, 2, "udr", 8, 1, 0, True), (13, 549, 36419, 32864, 4, 133)),
]


class TestPinnedRuns:
    @pytest.mark.parametrize(
        "scenario,expected",
        PINNED_RUNS,
        ids=["-".join(map(str, scenario)) for scenario, _ in PINNED_RUNS],
    )
    def test_reproduces_recorded_run(self, sim_exchange, scenario, expected):
        placement, packets = sim_exchange(*scenario)
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        lat = result.latencies
        counts = result.link_counts
        assert (
            result.cycles,
            int(lat.sum()),
            int(lat @ np.arange(1, lat.size + 1)),
            int(counts @ np.arange(1, counts.size + 1)),
            result.max_queue_length,
            result.delivered,
        ) == expected
        assert [p.delivered_cycle - p.release_cycle for p in packets] == lat.tolist()
        assert all(p.hop == p.path_length for p in packets)

    def test_counts_accumulate_on_a_reused_network(self, sim_exchange):
        placement, packets = sim_exchange("linear", 6, 2, "odr", 1, 1, 0, False)
        net = SimNetwork(placement.torus)
        once = CycleEngine(net).run(packets).link_counts
        twice = CycleEngine(net).run(packets).link_counts
        assert np.array_equal(twice, 2 * once)
