"""Property tests for the ring sums of :mod:`repro.load.rings`.

The ring sums count complete-exchange loads from per-ring sender and
receiver marginals; they must equal, bit for bit, the path table's pair
apply (forced here by an explicit all-ones-minus-identity traffic
matrix, which the ring sums never serve) and the per-pair reference
oracle after :func:`~repro.load.quantize.snap_loads`.  Even radii
exercise the ``+`` tie-break of half-ring corrections.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.edge_loads import edge_loads_reference
from repro.load.path_table import PathTable
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.load.rings import dimension_order_ring_loads, udr_ring_loads
from repro.placements.base import Placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

#: tori of d = 1-4, k = 2-9 whose pair apply stays cheap at |P| = k^d
TORI = [
    (k, d) for d in range(1, 5) for k in range(2, 10) if k**d <= 729
]


def _routings(d):
    orders = [DimensionOrderRouting(o) for o in itertools.permutations(range(d))]
    return orders + [UnorderedDimensionalRouting()]


@st.composite
def placements(draw, tori):
    k, d = draw(st.sampled_from(tori))
    torus = Torus(k, d)
    size = draw(st.integers(min_value=1, max_value=torus.num_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    ids = np.random.default_rng(seed).choice(torus.num_nodes, size, replace=False)
    placement = Placement(torus, ids)
    routing = draw(st.sampled_from(_routings(d)))
    return placement, routing


def _ring_loads(placement, routing):
    torus = placement.torus
    coords = torus.all_node_coords()[placement.node_ids]
    if isinstance(routing, UnorderedDimensionalRouting):
        return udr_ring_loads(coords, torus.shape)
    return dimension_order_ring_loads(coords, torus.shape, routing.order)


@given(placements(TORI))
@settings(max_examples=120, deadline=None)
def test_rings_equal_the_pair_apply(case):
    placement, routing = case
    torus = placement.torus
    m = len(placement)
    traffic = np.ones((m, m)) - np.eye(m)
    pairs = PathTable(torus, routing).loads(placement, traffic)
    quantum = routing_load_quantum(routing, torus.d)
    assert np.array_equal(
        _ring_loads(placement, routing), snap_loads(pairs, quantum)
    )


@given(placements([(k, d) for k, d in TORI if k**d <= 64]))
@settings(max_examples=60, deadline=None)
def test_rings_equal_the_reference_after_snap(case):
    placement, routing = case
    quantum = routing_load_quantum(routing, placement.torus.d)
    reference = snap_loads(edge_loads_reference(placement, routing), quantum)
    assert np.array_equal(_ring_loads(placement, routing), reference)
