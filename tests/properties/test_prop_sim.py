"""Property-based tests on the packet simulator.

Invariants: everything is delivered; per-packet latency is at least the
path length; total link traversals equal total hops; and for ODR the link
counters equal the analytic loads for any placement.  Packets gathered from
the path tables equal, packet for packet, the per-pair ``routing.paths``
sampler's, and leave the generator in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.odr_loads import odr_edge_loads
from repro.placements.base import Placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.engine import CycleEngine
from repro.sim.network import SimNetwork
from repro.sim.workloads import _sampled_paths, complete_exchange_packets
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays


@st.composite
def sim_scenario(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=2))
    torus = Torus(k, d)
    size = draw(st.integers(min_value=2, max_value=min(6, torus.num_nodes)))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=torus.num_nodes - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return Placement(torus, ids), seed


class TestSimInvariants:
    @settings(max_examples=30, deadline=None)
    @given(sim_scenario())
    def test_everything_delivered(self, scenario):
        placement, seed = scenario
        routing = OrderedDimensionalRouting(placement.torus.d)
        packets = complete_exchange_packets(placement, routing, seed=seed)
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        assert result.delivered == len(packets)

    @settings(max_examples=30, deadline=None)
    @given(sim_scenario())
    def test_latency_at_least_path_length(self, scenario):
        placement, seed = scenario
        routing = OrderedDimensionalRouting(placement.torus.d)
        packets = complete_exchange_packets(placement, routing, seed=seed)
        CycleEngine(SimNetwork(placement.torus)).run(packets)
        for p in packets:
            assert p.latency >= p.path_length

    @settings(max_examples=30, deadline=None)
    @given(sim_scenario())
    def test_total_traversals_equal_total_hops(self, scenario):
        placement, seed = scenario
        routing = OrderedDimensionalRouting(placement.torus.d)
        packets = complete_exchange_packets(placement, routing, seed=seed)
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        assert result.link_counts.sum() == sum(p.path_length for p in packets)

    @settings(max_examples=20, deadline=None)
    @given(sim_scenario())
    def test_odr_counters_equal_analytic(self, scenario):
        placement, seed = scenario
        routing = OrderedDimensionalRouting(placement.torus.d)
        packets = complete_exchange_packets(placement, routing, seed=seed)
        result = CycleEngine(SimNetwork(placement.torus)).run(packets)
        assert np.allclose(
            result.link_counts.astype(float), odr_edge_loads(placement)
        )


ROUTINGS = {
    "odr": OrderedDimensionalRouting,
    "reversed": lambda d: DimensionOrderRouting(tuple(reversed(range(d)))),
    "udr": lambda d: UnorderedDimensionalRouting(),
}


@st.composite
def exchange_scenario(draw):
    """Tori up to T_5^3 and T_3^4, any routing, one to three rounds."""
    k, d = draw(
        st.one_of(
            st.tuples(st.integers(2, 5), st.integers(1, 3)), st.just((3, 4))
        )
    )
    torus = Torus(k, d)
    ids = draw(
        st.lists(
            st.integers(0, torus.num_nodes - 1),
            min_size=2,
            max_size=min(12, torus.num_nodes),
            unique=True,
        )
    )
    routing = ROUTINGS[draw(st.sampled_from(sorted(ROUTINGS)))](d)
    rounds = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    return Placement(torus, ids), routing, rounds, seed


class TestTableSamplingMatchesPerPairSampler:
    @settings(max_examples=60, deadline=None)
    @given(exchange_scenario())
    def test_same_packets_and_generator_state(self, scenario):
        placement, routing, rounds, seed = scenario
        rng = np.random.default_rng(seed)
        packets = complete_exchange_packets(
            placement, routing, seed=rng, rounds=rounds, stagger=3
        )
        reference_rng = np.random.default_rng(seed)
        pairs = np.column_stack(ordered_pair_index_arrays(len(placement)))
        ids = placement.node_ids
        expected = [
            (n, int(ids[i]), int(ids[j]), path, 3 * r)
            for r in range(rounds)
            for n, ((i, j), path) in enumerate(
                zip(
                    pairs.tolist(),
                    _sampled_paths(placement, routing, pairs, reference_rng),
                ),
                start=r * len(pairs),
            )
        ]
        got = [
            (p.packet_id, p.src, p.dst, p.edge_ids, p.release_cycle)
            for p in packets
        ]
        assert got == expected
        assert all(type(e) is int for p in packets for e in p.edge_ids)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
