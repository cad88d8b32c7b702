"""Properties: the FFT snap-back is a rounding, and ``auto`` is exact.

The :mod:`repro.load.quantize` contract says the spectral accumulation
lands so close to the exact rational grid that snapping moves every value
by strictly less than :data:`~repro.load.quantize.LOAD_SNAP_TOLERANCE`.
Hypothesis drives random and coset placements, routings, and integer
traffic through the backend and checks the observed drift never
approaches the tolerance — and that the snapped result is the oracle's
value exactly.  The same cases, plus fault-masked routings, check that
every branch of ``auto`` dispatch matches the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LoadError
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import FFTBackend, LoadEngine
from repro.load.quantize import (
    LOAD_SNAP_TOLERANCE,
    routing_load_quantum,
    snap_loads,
)
from repro.placements.base import Placement
from repro.routing.faults import FaultMaskedRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


@st.composite
def fft_case(draw, faults=False):
    """``(placement, routing, weights, coset)`` on tori up to T_5^3.

    ``coset`` placements are a drawn offset plus the cyclic subgroup of a
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
    return placement, routing, weights, coset


def _assert_matches_oracle(got, oracle, routing, d):
    quantum = routing_load_quantum(routing, d)
    if quantum is not None:
        assert np.array_equal(
            snap_loads(got, quantum), snap_loads(oracle, quantum)
        )
    else:
        assert np.abs(got - oracle).max(initial=0.0) <= 1e-9


@given(fft_case())
@settings(max_examples=60, deadline=None)
def test_snap_never_moves_a_value_near_tolerance(case):
    placement, routing, weights, coset = case
    backend = FFTBackend()
    if coset and weights is None:
        # complete-exchange cosets take the spectral path
        assert backend.supports(placement, routing)
    got = backend.compute(placement, routing, pair_weights=weights)
    # the drift the snap-back applied is far below the failure threshold
    assert backend.last_snap_drift < LOAD_SNAP_TOLERANCE
    assert backend.last_snap_drift < 1e-6
    oracle = edge_loads_reference(placement, routing, weights)
    _assert_matches_oracle(got, oracle, routing, placement.torus.d)


@given(fft_case(faults=True))
@settings(max_examples=60, deadline=None)
def test_auto_matches_reference_after_snap(case):
    placement, routing, weights, _coset = case
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
