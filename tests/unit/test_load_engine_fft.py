"""Unit tests for the FFT backend: translated loads of stabilized placements.

The contract under test is *bit*-identity: after canonicalizing both
sides with :func:`repro.load.quantize.snap_loads`, the FFT backend must
equal the reference oracle exactly — not merely within a float
tolerance — on every translation-invariant configuration, by moving the
memoized loads of a translate through the origin for complete exchange
on placements with a nontrivial translation stabilizer, and through the
path-table fallback for everything else.
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
)
from repro.load.plancache import PlanCache, current_plan_cache, using_plan_cache
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.load.traffic import hotspot_traffic_weights
from repro.obs import Tracer, using_tracer
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
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


def _table_loads(placement, routing):
    """What the backend's fallback serves: the plan's path-table apply."""
    plan = current_plan_cache().get(placement.torus, routing)
    return plan.table.loads(placement)


def _assert_bit_identical(placement, routing, pair_weights=None):
    torus = placement.torus
    oracle = edge_loads_reference(placement, routing, pair_weights)
    got = LoadEngine("fft").edge_loads(
        placement, routing, pair_weights=pair_weights
    )
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
        got = LoadEngine("fft").edge_loads(placement, routing, pair_weights=w)
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
        placement = linear_placement(Torus(5, 2))
        routing = OrderedDimensionalRouting(2)
        tracer = Tracer()
        with using_tracer(tracer):
            got = FFTBackend().compute(placement, routing)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["engine.fft.fast_path"] == 1
        assert np.array_equal(got, _table_loads(placement, routing))

    def test_plan_cache_reuse_is_exact(self):
        backend = FFTBackend()
        placement = linear_placement(Torus(8, 2))
        routing = OrderedDimensionalRouting(2)
        first = backend.compute(placement, routing)
        second = backend.compute(placement, routing)  # served by plan
        assert np.array_equal(first, second)
        assert np.array_equal(
            first, LoadEngine("displacement").edge_loads(placement, routing)
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
        # 3 nodes with a trivial stabilizer: the fast path must not
        # trigger and the displacement fallback must be exact.
        torus = Torus(5, 2)
        placement = Placement(torus, [0, 1, 7], name="non-coset")
        for routing in _routings(2):
            assert not FFTBackend().supports(placement, routing)
            assert np.array_equal(
                LoadEngine("fft").edge_loads(placement, routing),
                _table_loads(placement, routing),
            )
            _assert_bit_identical(placement, routing)

    def test_offsets_of_one_class_share_one_evaluation(self):
        # every offset of a linear class has the class through the origin
        # as its translate: the path table evaluates it once, and each
        # offset is a shift of that one array; a random placement (trivial
        # stabilizer) takes the table apply and leaves the memo as it was
        torus = Torus(8, 2)
        routing = OrderedDimensionalRouting(2)
        placements = [linear_placement(torus, offset=c) for c in range(8)]
        random = random_placement(torus, 8, seed=1)
        cache = PlanCache()
        tracer = Tracer()
        with using_plan_cache(cache), using_tracer(tracer):
            shifted = [
                LoadEngine("fft").edge_loads(placement, routing)
                for placement in placements
            ]
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["engine.fft.fast_path"] == 8
            assert counters.get("engine.table.rings", 0) + counters.get(
                "engine.table.pairs", 0
            ) == 1
            memo = cache.get(torus, routing).spectra
            assert list(memo) == [placements[0].node_ids.tobytes()]
            LoadEngine("fft").edge_loads(random, routing)
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["engine.fft.fast_path"] == 8
            assert list(memo) == [placements[0].node_ids.tobytes()]
        for placement, loads in zip(placements, shifted):
            expected = LoadEngine("vectorized").edge_loads(placement, routing)
            assert loads.dtype == expected.dtype
            assert np.array_equal(loads, expected), placement.name

    def test_two_coset_placement_takes_the_fast_path(self):
        # two cosets of an order-4 subgroup of Z_4^3 that do not form a
        # coset of anything larger: |H| = 4 and D = 3 classes of P - P;
        # P holds node 0, so it is its own translate through the origin
        torus = Torus(4, 3)
        placement = Placement(
            torus, [0, 2, 12, 14, 37, 39, 41, 43], name="two-cosets"
        )
        for routing in _routings(3):
            cache = PlanCache()
            with using_plan_cache(cache):
                assert FFTBackend().supports(placement, routing)
                cover = cache.verdict((4, 3, placement.node_ids.tobytes()))
                assert len(cover.classes) == 3
                assert len(np.frombuffer(cover.subgroup, dtype=np.int64)) == 3
                _assert_bit_identical(placement, routing)
            assert list(cache.get(torus, routing).spectra) == [
                placement.node_ids.tobytes()
            ]

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
        loads = LoadEngine("fft").edge_loads(
            placement, OrderedDimensionalRouting(2)
        )
        assert loads.shape == (torus.num_edges,)
        assert not loads.any()


def _plan_lookups(tracer):
    """Plan-cache lookups counted by ``tracer``: hits plus misses."""
    counters = tracer.metrics.snapshot()["counters"]
    return counters.get("plancache.hits", 0) + counters.get(
        "plancache.misses", 0
    )


class TestCosetVerdicts:
    """The plan cache remembers a coset's verdict for every routing."""

    def test_warm_coset_needs_no_plan_lookup_under_any_routing(self):
        torus = Torus(6, 2)
        placement = linear_placement(torus)
        cache = PlanCache()
        with using_plan_cache(cache):
            FFTBackend().compute(placement, OrderedDimensionalRouting(2))
            tracer = Tracer()
            with using_tracer(tracer):
                for routing in _routings(2):
                    assert FFTBackend().supports(placement, routing)
        assert _plan_lookups(tracer) == 0

    def test_supports_remembers_the_verdict_and_builds_nothing(self):
        torus = Torus(6, 2)
        placement = linear_placement(torus)
        routing = OrderedDimensionalRouting(2)
        cache = PlanCache()
        with using_plan_cache(cache):
            assert FFTBackend().supports(placement, routing)
        assert cache.verdict((6, 2, placement.node_ids.tobytes())) is not None
        assert not cache.get(torus, routing).spectra

    def test_probe_rejects_non_cosets_before_any_plan_lookup(self):
        # the verdict needs no plan: a trivial stabilizer is rejected and
        # a two-class multiple linear placement accepted without a lookup
        torus = Torus(8, 2)
        routing = OrderedDimensionalRouting(2)
        random = random_placement(torus, size=8, seed=1)
        multilinear = multiple_linear_placement(torus, 2, base_offset=3)
        cache = PlanCache()
        tracer = Tracer()
        with using_plan_cache(cache), using_tracer(tracer):
            assert not FFTBackend().supports(random, routing)
            assert FFTBackend().supports(multilinear, routing)
        assert _plan_lookups(tracer) == 0
        assert cache.verdict((8, 2, random.node_ids.tobytes())) is None
        cover = cache.verdict((8, 2, multilinear.node_ids.tobytes()))
        assert len(cover.classes) == 3


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
        # complete exchange only
        weights = np.ones((len(placement), len(placement)))
        assert not backend.supports(
            placement, OrderedDimensionalRouting(2), weights
        )


class TestAutoOrder:
    def test_fft_first_for_odr_cosets(self):
        torus = Torus(4, 2)
        routing = OrderedDimensionalRouting(2)
        engine = LoadEngine("auto")
        coset = linear_placement(torus)
        non_coset = Placement(torus, [0, 1, 6, 11], name="non-coset")
        assert isinstance(engine.backend_for(coset, routing), FFTBackend)
        assert isinstance(
            engine.backend_for(non_coset, routing), VectorizedBackend
        )
        for placement in (coset, non_coset):
            _assert_bit_identical(placement, routing)
            assert np.array_equal(
                engine.edge_loads(placement, routing),
                LoadEngine("vectorized").edge_loads(placement, routing),
            )

    def test_fft_ahead_of_displacement_for_unrestricted(self):
        placement = linear_placement(Torus(4, 2))
        backend = LoadEngine("auto").backend_for(placement, UnrestrictedODR())
        assert isinstance(backend, FFTBackend)
