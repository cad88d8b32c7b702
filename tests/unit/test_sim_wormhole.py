"""Unit tests for repro.sim.wormhole."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.load.odr_loads import odr_edge_loads
from repro.placements.linear import linear_placement
from repro.obs import Tracer, using_tracer
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet
from repro.sim.workloads import complete_exchange_packets
from repro.sim.wormhole import (
    WormholeConfig,
    WormholeEngine,
    assign_virtual_channels,
)
from repro.torus.topology import Torus


def _packet(torus, src, dst, pid=0):
    path = OrderedDimensionalRouting(torus.d).path(torus, src, dst)
    return Packet(pid, path.source, path.destination, path.edge_ids)


class TestConfig:
    def test_defaults(self):
        cfg = WormholeConfig()
        assert cfg.flits_per_packet >= 1 and cfg.buffer_flits >= 1

    def test_invalid(self):
        with pytest.raises(SimulationError):
            WormholeConfig(flits_per_packet=0)
        with pytest.raises(SimulationError):
            WormholeConfig(buffer_flits=0)


class TestVirtualChannels:
    def test_no_wrap_stays_vc0(self):
        torus = Torus(6, 2)
        pkt = _packet(torus, (0, 0), (2, 2))
        assert assign_virtual_channels(torus, pkt.edge_ids) == [0, 0, 0, 0]

    def test_wrap_switches_to_vc1(self):
        torus = Torus(6, 2)
        pkt = _packet(torus, (5, 0), (1, 0))  # crosses 5 -> 0 immediately
        vcs = assign_virtual_channels(torus, pkt.edge_ids)
        assert vcs == [1, 1]

    def test_vc_resets_per_dimension(self):
        torus = Torus(6, 2)
        # dim 0 wraps (5 -> 1), dim 1 does not (0 -> 2)
        pkt = _packet(torus, (5, 0), (1, 2))
        vcs = assign_virtual_channels(torus, pkt.edge_ids)
        assert vcs == [1, 1, 0, 0]

    def test_minus_direction_dateline(self):
        torus = Torus(6, 2)
        pkt = _packet(torus, (1, 0), (5, 0))  # 1 -> 0 -> 5 travelling −
        vcs = assign_virtual_channels(torus, pkt.edge_ids)
        assert vcs == [0, 1]


class TestPipelining:
    def test_single_packet_latency(self):
        torus = Torus(6, 2)
        pkt = _packet(torus, (0, 0), (2, 2))
        res = WormholeEngine(torus, WormholeConfig(flits_per_packet=4)).run([pkt])
        # wormhole: hops + flits - 1 under zero contention
        assert pkt.latency == 4 + 4 - 1

    def test_single_flit_degenerates(self):
        torus = Torus(6, 2)
        pkt = _packet(torus, (0, 0), (0, 3))
        res = WormholeEngine(torus, WormholeConfig(flits_per_packet=1)).run([pkt])
        assert pkt.latency == 3

    def test_zero_hop_packet(self):
        torus = Torus(4, 2)
        pkt = Packet(0, 5, 5, ())
        res = WormholeEngine(torus).run([pkt])
        assert res.delivered == 1
        assert pkt.latency == 0


class TestCompleteExchange:
    @pytest.mark.parametrize("flits,buffers", [(1, 1), (3, 2), (4, 1)])
    def test_all_delivered(self, flits, buffers):
        torus = Torus(5, 2)
        placement = linear_placement(torus)
        packets = complete_exchange_packets(
            placement, OrderedDimensionalRouting(2), seed=0
        )
        res = WormholeEngine(
            torus, WormholeConfig(flits_per_packet=flits, buffer_flits=buffers)
        ).run(packets)
        assert res.delivered == len(packets)

    def test_packet_counts_match_analytic(self):
        torus = Torus(6, 2)
        placement = linear_placement(torus)
        packets = complete_exchange_packets(
            placement, OrderedDimensionalRouting(2), seed=0
        )
        res = WormholeEngine(
            torus, WormholeConfig(flits_per_packet=3)
        ).run(packets)
        assert np.allclose(res.link_packet_counts, odr_edge_loads(placement))

    def test_longer_worms_take_longer(self):
        torus = Torus(5, 2)
        placement = linear_placement(torus)

        def run(flits):
            packets = complete_exchange_packets(
                placement, OrderedDimensionalRouting(2), seed=0
            )
            return WormholeEngine(
                torus, WormholeConfig(flits_per_packet=flits)
            ).run(packets)

        assert run(4).cycles > run(1).cycles

    def test_wormhole_beats_store_and_forward_for_long_packets(self):
        # pipelining: single long packet completes in hops+L-1 cycles,
        # a store-and-forward model would need hops*L
        torus = Torus(8, 2)
        pkt = _packet(torus, (0, 0), (4, 4))
        hops = pkt.path_length
        flits = 6
        res = WormholeEngine(
            torus, WormholeConfig(flits_per_packet=flits, buffer_flits=2)
        ).run([pkt])
        assert pkt.latency == hops + flits - 1 < hops * flits


class TestValidation:
    def test_edge_revisiting_route_rejected(self):
        torus = Torus(4, 2)
        eid = torus.edges.edge_id(0, 0, +1)
        pkt = Packet(0, 0, 0, (eid, eid))
        with pytest.raises(SimulationError):
            WormholeEngine(torus).run([pkt])

    def test_max_cycles_guard(self):
        torus = Torus(4, 2)
        pkt = _packet(torus, (0, 0), (1, 1))
        pkt.release_cycle = 10**7
        with pytest.raises(SimulationError):
            WormholeEngine(torus, max_cycles=5).run([pkt])


class TestStress:
    def test_tight_buffers_fully_populated(self):
        # minimum buffering, every node populated: maximal channel pressure,
        # still deadlock-free under dateline dimension-order routing
        torus = Torus(4, 2)
        from repro.placements.fully import fully_populated_placement

        placement = fully_populated_placement(torus)
        packets = complete_exchange_packets(
            placement, OrderedDimensionalRouting(2), seed=0
        )
        res = WormholeEngine(
            torus, WormholeConfig(flits_per_packet=4, buffer_flits=1),
            max_cycles=200_000,
        ).run(packets)
        assert res.delivered == len(packets)
        assert np.allclose(res.link_packet_counts, odr_edge_loads(placement))


#: (placement, k, d, routing, seed, rounds, stagger, scrambled, flits,
#: buffers) of a ``sim_exchange`` run -> (cycles, sum of latencies,
#: latencies weighted by packet position, flit counts weighted by edge id,
#: delivered).  Recorded from the engine's previous implementation, which
#: scanned every hop of every packet each cycle; the run must reproduce
#: it exactly.
PINNED_RUNS = [
    (("linear", 6, 2, "odr", 1, 1, 0, False, 4, 2), (19, 345, 5367, 31248, 30)),
    (("random", 5, 2, "udr", 2, 1, 0, False, 2, 1), (53, 1553, 77954, 22656, 90)),
    (("linear", 8, 2, "odr", 3, 2, 3, False, 1, 1), (24, 1019, 61187, 65728, 112)),
    (("linear", 4, 3, "odr", 4, 1, 0, False, 3, 2), (55, 4844, 571700, 442944, 240)),
    (("twoclass", 6, 2, "rev", 5, 2, 4, False, 4, 3), (148, 15051, 2035412, 249984, 264)),
    (("linear", 6, 2, "odr", 6, 1, 0, True, 3, 1), (24, 352, 5633, 23436, 31)),
    (("random", 4, 3, "udr", 7, 1, 0, True, 2, 2), (14, 292, 8407, 51496, 57)),
    (("twoclass", 5, 2, "odr", 8, 2, 2, False, 5, 2), (117, 8760, 844078, 121200, 180)),
    (("linear", 5, 3, "udr", 9, 1, 0, False, 2, 2), (52, 8158, 2341657, 1679874, 600)),
]


class _Records:
    """In-memory trace sink."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestPinnedRuns:
    @pytest.mark.parametrize(
        "scenario,expected",
        PINNED_RUNS,
        ids=["-".join(map(str, scenario)) for scenario, _ in PINNED_RUNS],
    )
    def test_reproduces_recorded_run(self, sim_exchange, scenario, expected):
        *exchange, flits, buffers = scenario
        placement, packets = sim_exchange(*exchange)
        res = WormholeEngine(
            placement.torus, WormholeConfig(flits, buffers)
        ).run(packets)
        lat = res.latencies
        counts = res.link_flit_counts
        assert (
            res.cycles,
            int(lat.sum()),
            int(lat @ np.arange(1, lat.size + 1)),
            int(counts @ np.arange(1, counts.size + 1)),
            res.delivered,
        ) == expected
        assert [p.delivered_cycle - p.release_cycle for p in packets] == lat.tolist()

    def test_traced_metrics_match_recorded_snapshot(self):
        # recorded from the previous implementation, which observed one
        # contention depth per link and cycle; the tallied fold must agree
        placement = linear_placement(Torus(6, 2))
        sink = _Records()
        tracer = Tracer(sink=sink, label="wormhole")
        with using_tracer(tracer):
            packets = complete_exchange_packets(
                placement, OrderedDimensionalRouting(2), seed=3, rounds=2, stagger=1
            )
            CycleEngine(SimNetwork(placement.torus)).run(packets)
            WormholeEngine(placement.torus, WormholeConfig(3, 1)).run(packets)
        snap = tracer.metrics.snapshot()
        assert snap["histograms"]["sim.contention"] == {
            "count": 1136,
            "total": 1949.0,
            "min": 1.0,
            "max": 6.0,
            "buckets": {"0": 766, "1": 144, "2": 160, "3": 66},
        }
        assert snap["counters"]["sim.flits_blocked"] == 983.0
        assert snap["counters"]["sim.cycles"] == 59.0
        assert snap["counters"]["sim.packets_routed"] == 120.0
        # a run is one span: the engines trace no per-cycle spans
        spans = [r for r in sink.records if r["kind"] == "span"]
        assert [(r["name"], r["attributes"]["engine"]) for r in spans] == [
            ("sim.run", "cycle"),
            ("sim.run", "wormhole"),
        ]


class TestStalls:
    def test_udr_deadlock_raises_at_the_first_frozen_cycle(self):
        # dateline VCs cover one dimension order; UDR mixes six here, and
        # this run freezes with 82 worms holding a channel cycle
        torus = Torus(6, 3)
        packets = complete_exchange_packets(
            linear_placement(torus), UnorderedDimensionalRouting(), seed=0
        )
        with pytest.raises(SimulationError, match="deadlocked at cycle 212") as err:
            WormholeEngine(torus).run(packets)
        assert "82 packets undelivered" in str(err.value)

    def test_waiting_for_release_is_not_a_deadlock(self):
        torus = Torus(4, 2)
        pkt = _packet(torus, (0, 0), (1, 1))
        pkt.release_cycle = 30
        res = WormholeEngine(torus).run([pkt])
        assert res.delivered == 1 and pkt.latency == 2 + 4 - 1

    def test_duplicate_packet_ids_are_all_delivered(self):
        torus = Torus(4, 2)
        packets = [
            _packet(torus, (0, 0), (1, 2), pid=0),
            _packet(torus, (3, 1), (2, 3), pid=0),
        ]
        res = WormholeEngine(torus).run(packets)
        assert res.delivered == 2
        assert all(p.delivered_cycle is not None for p in packets)
        cycle = CycleEngine(SimNetwork(torus)).run(packets)
        assert np.array_equal(res.link_packet_counts, cycle.link_counts)
