"""Unit tests for the FFT circular-correlation load backend.

The contract under test is *bit*-identity: after canonicalizing both
sides with :func:`repro.load.quantize.snap_loads`, the FFT backend must
equal the reference oracle exactly — not merely within a float
tolerance — on every translation-invariant configuration, spectrally for
complete-exchange cosets and through the displacement fallback for
everything else.
"""

import numpy as np
import pytest

from repro.errors import EngineError
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import (
    FFTBackend,
    LoadEngine,
    ReferenceBackend,
    VectorizedBackend,
    cross_check,
    displacement_edge_loads,
    fft_edge_loads,
)
from repro.load.quantize import (
    LOAD_SNAP_TOLERANCE,
    routing_load_quantum,
    snap_loads,
)
from repro.load.traffic import hotspot_traffic_weights
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.faults import FaultMaskedRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

#: every torus the bit-identity sweep covers — odd and even k, d = 1..3,
#: up to T_5^3 as the issue's acceptance criterion demands.
TORI = [(4, 1), (5, 1), (2, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3)]


def _routings(d):
    return [
        OrderedDimensionalRouting(d),
        UnorderedDimensionalRouting(),
        UnrestrictedODR(),
        AllMinimalPaths(),
    ]


def _assert_bit_identical(placement, routing, pair_weights=None):
    torus = placement.torus
    oracle = edge_loads_reference(placement, routing, pair_weights)
    got = fft_edge_loads(placement, routing, pair_weights=pair_weights)
    quantum = routing_load_quantum(routing, torus.d)
    if quantum is not None and pair_weights is None:
        assert np.array_equal(
            snap_loads(got, quantum), snap_loads(oracle, quantum)
        ), (placement.name, routing.name)
    else:
        # instance-dependent or weighted quanta: engine agreement bound.
        assert np.abs(got - oracle).max(initial=0.0) <= 1e-9, (
            placement.name,
            routing.name,
        )


class TestBitIdentity:
    @pytest.mark.parametrize("k,d", TORI)
    def test_linear_placements(self, k, d):
        torus = Torus(k, d)
        for routing in _routings(d):
            _assert_bit_identical(linear_placement(torus), routing)

    @pytest.mark.parametrize("k,d", TORI)
    def test_random_placements(self, k, d):
        torus = Torus(k, d)
        size = min(6, torus.num_nodes - 1)
        placement = random_placement(torus, size, seed=20260807)
        for routing in _routings(d):
            _assert_bit_identical(placement, routing)

    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (3, 3)])
    def test_sublattice_placements(self, k, d):
        # a principal subtorus is a subgroup — exercises the coset fast
        # path on a placement that is *not* a linear congruence class.
        torus = Torus(k, d)
        placement = single_subtorus_placement(torus, dim=0, value=1)
        for routing in _routings(d):
            _assert_bit_identical(placement, routing)

    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (2, 3), (3, 3)])
    def test_weighted_traffic(self, k, d):
        torus = Torus(k, d)
        placement = random_placement(
            torus, min(6, torus.num_nodes - 1), seed=7
        )
        w = hotspot_traffic_weights(
            len(placement), hotspot_index=0, background=0.5
        )
        for routing in _routings(d):
            _assert_bit_identical(placement, routing, pair_weights=w)

    def test_integer_weights_stay_on_grid(self):
        torus = Torus(5, 2)
        placement = random_placement(torus, 6, seed=11)
        m = len(placement)
        w = np.arange(m * m, dtype=np.float64).reshape(m, m) % 4
        np.fill_diagonal(w, 0.0)
        routing = UnorderedDimensionalRouting()
        oracle = edge_loads_reference(placement, routing, w)
        got = fft_edge_loads(placement, routing, pair_weights=w)
        quantum = routing_load_quantum(routing, torus.d)
        assert np.array_equal(
            snap_loads(got, quantum), snap_loads(oracle, quantum)
        )

    def test_cross_check_includes_fft(self):
        placement = linear_placement(Torus(4, 2))
        diffs = cross_check(placement, OrderedDimensionalRouting(2))
        assert "fft" in diffs
        assert diffs["fft"] <= 1e-9


class TestRegimes:
    def test_linear_uses_coset_fast_path(self):
        backend = FFTBackend()
        placement = linear_placement(Torus(5, 2))
        routing = OrderedDimensionalRouting(2)
        backend.compute(placement, routing)
        tracer_free_drift = backend.last_snap_drift
        assert tracer_free_drift < LOAD_SNAP_TOLERANCE

    def test_plan_cache_reuse_is_exact(self):
        backend = FFTBackend()
        placement = linear_placement(Torus(8, 2))
        routing = OrderedDimensionalRouting(2)
        first = backend.compute(placement, routing)
        second = backend.compute(placement, routing)  # served by plan
        assert np.array_equal(first, second)
        assert np.array_equal(
            first, displacement_edge_loads(placement, routing)
        )

    def test_plan_cache_does_not_leak_into_weighted_calls(self):
        backend = FFTBackend()
        placement = linear_placement(Torus(6, 2))
        routing = OrderedDimensionalRouting(2)
        backend.compute(placement, routing)  # primes the plan cache
        w = hotspot_traffic_weights(
            len(placement), hotspot_index=2, background=1.0
        )
        got = backend.compute(placement, routing, pair_weights=w)
        oracle = edge_loads_reference(placement, routing, w)
        assert np.abs(got - oracle).max(initial=0.0) <= 1e-9

    def test_non_coset_placement_uses_displacement_fallback(self):
        # 3 collinear-free nodes: |P - P| > |P|, so the coset fast path
        # must not trigger and the displacement fallback must be exact.
        torus = Torus(5, 2)
        placement = Placement(torus, [0, 1, 7], name="non-coset")
        for routing in _routings(2):
            assert not FFTBackend().supports(placement, routing)
            assert np.array_equal(
                LoadEngine("fft").edge_loads(placement, routing),
                displacement_edge_loads(placement, routing),
            )
            _assert_bit_identical(placement, routing)

    def test_explicit_fft_serves_weighted_traffic_exactly(self):
        torus = Torus(5, 2)
        placement = linear_placement(torus)
        m = len(placement)
        w = np.arange(m * m, dtype=np.float64).reshape(m, m) % 3
        np.fill_diagonal(w, 0.0)
        for routing in _routings(2):
            assert not FFTBackend().supports(placement, routing, w)
            got = LoadEngine("fft").edge_loads(placement, routing, pair_weights=w)
            oracle = edge_loads_reference(placement, routing, w)
            quantum = routing_load_quantum(routing, torus.d)
            if quantum is None:
                assert np.abs(got - oracle).max() <= 1e-9
            else:
                assert np.array_equal(
                    snap_loads(got, quantum), snap_loads(oracle, quantum)
                )

    def test_empty_pair_set(self):
        torus = Torus(4, 2)
        placement = Placement(torus, [3], name="singleton")
        loads = fft_edge_loads(placement, OrderedDimensionalRouting(2))
        assert loads.shape == (torus.num_edges,)
        assert not loads.any()


class TestFallbacks:
    def test_explicit_fft_rejects_fault_masked_routing(self):
        placement = linear_placement(Torus(4, 2))
        masked = FaultMaskedRouting(
            OrderedDimensionalRouting(2), [0], strict=False
        )
        with pytest.raises(EngineError, match="translation-invariant"):
            FFTBackend().compute(placement, masked)

    def test_auto_falls_back_to_reference_for_fault_masked(self):
        placement = linear_placement(Torus(4, 2))
        masked = FaultMaskedRouting(
            OrderedDimensionalRouting(2), [0], strict=False
        )
        backend = LoadEngine("auto").backend_for(placement, masked)
        assert isinstance(backend, ReferenceBackend)

    def test_supports_mirrors_translation_invariance(self):
        placement = linear_placement(Torus(4, 2))
        backend = FFTBackend()
        assert backend.supports(placement, OrderedDimensionalRouting(2))
        assert not backend.supports(
            placement,
            FaultMaskedRouting(OrderedDimensionalRouting(2), [0]),
        )
        # complete-exchange cosets only
        weights = np.ones((len(placement), len(placement)))
        assert not backend.supports(
            placement, OrderedDimensionalRouting(2), weights
        )


class TestAutoOrder:
    def test_vectorized_still_first_for_odr(self):
        placement = linear_placement(Torus(4, 2))
        backend = LoadEngine("auto").backend_for(
            placement, OrderedDimensionalRouting(2)
        )
        assert isinstance(backend, VectorizedBackend)

    def test_fft_ahead_of_displacement_for_unrestricted(self):
        placement = linear_placement(Torus(4, 2))
        backend = LoadEngine("auto").backend_for(placement, UnrestrictedODR())
        assert isinstance(backend, FFTBackend)
