"""Properties: every backend, and ``auto``, is exact after ``snap_loads``.

Hypothesis drives random and coset placements, routings, and integer
traffic through ``vectorized``, ``displacement`` and ``fft``, and, with
fault-masked routings added, through every branch of ``auto`` dispatch,
and checks that each result, snapped onto the
:mod:`repro.load.quantize` grid, is the oracle's value exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LoadError
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import LoadEngine, VectorizedBackend
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.placements.base import Placement
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.faults import FaultMaskedRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


@st.composite
def fft_case(draw, faults=False):
    """``(placement, routing, weights)`` on tori up to T_5^3.

    Coset placements are a drawn offset plus the cyclic subgroup of a
    drawn nonzero vector; the others are random node sets.
    """
    k = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    torus = Torus(k, d)
    coset = draw(st.booleans())
    if coset:
        residues = st.lists(
            st.integers(min_value=0, max_value=k - 1), min_size=d, max_size=d
        )
        vector = np.array(draw(residues.filter(any)))
        offset = np.array(draw(residues))
        coords = {tuple((offset + j * vector) % k) for j in range(k)}
        ids = torus.node_ids(sorted(coords))
    else:
        size = draw(
            st.integers(min_value=2, max_value=min(7, torus.num_nodes))
        )
        ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=torus.num_nodes - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
    placement = Placement(torus, ids, name="hypothesis")
    size = len(placement)
    routing = draw(
        st.sampled_from(
            [
                OrderedDimensionalRouting(d),
                DimensionOrderRouting(tuple(reversed(range(d)))),
                UnorderedDimensionalRouting(),
                UnrestrictedODR(),
                AllMinimalPaths(),
            ]
        )
    )
    if faults and draw(st.booleans()):
        failed = draw(st.integers(min_value=0, max_value=torus.num_edges - 1))
        routing = FaultMaskedRouting(routing, [failed], strict=False)
    weighted = draw(st.booleans())
    if weighted:
        cells = draw(
            st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=size * size,
                max_size=size * size,
            )
        )
        weights = np.array(cells, dtype=np.float64).reshape(size, size)
        np.fill_diagonal(weights, 0.0)
    else:
        weights = None
    return placement, routing, weights


def _assert_matches_oracle(got, oracle, routing, d):
    quantum = routing_load_quantum(routing, d)
    if quantum is not None:
        assert np.array_equal(
            snap_loads(got, quantum), snap_loads(oracle, quantum)
        )
    else:
        assert np.abs(got - oracle).max(initial=0.0) <= 1e-9


@given(fft_case(faults=True))
@settings(max_examples=60, deadline=None)
def test_auto_matches_reference_after_snap(case):
    placement, routing, weights = case
    engine = LoadEngine("auto")
    try:
        oracle = edge_loads_reference(placement, routing, weights)
    except LoadError:
        # a failure cut every path of some pair: auto must say so too
        try:
            engine.edge_loads(placement, routing, pair_weights=weights)
        except LoadError:
            return
        raise AssertionError("auto served a disconnected pair")
    got = engine.edge_loads(placement, routing, pair_weights=weights)
    _assert_matches_oracle(got, oracle, routing, placement.torus.d)


@given(fft_case())
@settings(max_examples=60, deadline=None)
def test_every_backend_matches_reference_after_snap(case):
    placement, routing, weights = case
    oracle = edge_loads_reference(placement, routing, weights)
    names = ["displacement", "fft"]
    if VectorizedBackend().supports(placement, routing, weights):
        names.append("vectorized")
    for name in names:
        got = LoadEngine(name).edge_loads(
            placement, routing, pair_weights=weights
        )
        _assert_matches_oracle(got, oracle, routing, placement.torus.d)
