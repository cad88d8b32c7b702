"""Unit tests for the repro.load.engine subsystem."""

import numpy as np
import pytest

from repro.errors import EngineError, LoadError
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import (
    DisplacementBackend,
    DisplacementPathCache,
    FFTBackend,
    LoadEngine,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    cross_check,
    displacement_edge_loads,
    get_default_engine,
    resolve_engine,
    set_default_engine,
    using_engine,
)
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.load.traffic import hotspot_traffic_weights
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.routing.faults import FaultMaskedRouting
from repro.routing.minimal import AllMinimalPaths
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.odr_unrestricted import UnrestrictedODR
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

ATOL = 1e-9


class TestBackendAgreement:
    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (4, 3)])
    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda d: OrderedDimensionalRouting(d),
            lambda d: UnorderedDimensionalRouting(),
            lambda d: UnrestrictedODR(),
        ],
        ids=["odr", "udr", "odr-unrestricted"],
    )
    def test_all_backends_match_oracle(self, k, d, make_routing):
        placement = linear_placement(Torus(k, d))
        diffs = cross_check(placement, make_routing(d), atol=ATOL)
        assert set(diffs) >= {"reference", "displacement", "fft"}
        assert all(v <= ATOL for v in diffs.values())

    def test_weighted_traffic(self, linear_4_2):
        routing = OrderedDimensionalRouting(2)
        w = hotspot_traffic_weights(len(linear_4_2), hotspot_index=1, background=0.5)
        oracle = edge_loads_reference(linear_4_2, routing, w)
        for name in ("vectorized", "fft", "displacement"):
            engine = LoadEngine(name)
            loads = engine.edge_loads(linear_4_2, routing, pair_weights=w)
            assert np.abs(loads - oracle).max() <= ATOL, name

    def test_emax_matches_loads(self, linear_4_2):
        routing = OrderedDimensionalRouting(2)
        engine = LoadEngine("displacement")
        loads = engine.edge_loads(linear_4_2, routing)
        assert engine.emax(linear_4_2, routing) == loads.max()


class TestAutoDispatch:
    def test_auto_picks_vectorized_for_odr(self, linear_4_2):
        engine = LoadEngine("auto")
        backend = engine.backend_for(linear_4_2, OrderedDimensionalRouting(2))
        assert isinstance(backend, VectorizedBackend)

    def test_auto_picks_fft_for_unrestricted(self, linear_4_2):
        engine = LoadEngine("auto")
        backend = engine.backend_for(linear_4_2, UnrestrictedODR())
        assert isinstance(backend, FFTBackend)

    def test_auto_falls_back_to_reference_for_faults(self, linear_4_2):
        engine = LoadEngine("auto")
        masked = FaultMaskedRouting(AllMinimalPaths(), [0])
        assert isinstance(
            engine.backend_for(linear_4_2, masked), ReferenceBackend
        )

    def test_auto_udr_weighted_uses_displacement(self, linear_4_2):
        engine = LoadEngine("auto")
        routing = UnorderedDimensionalRouting()
        w = np.ones((len(linear_4_2), len(linear_4_2)))
        assert isinstance(
            engine.backend_for(linear_4_2, routing, w), DisplacementBackend
        )
        # and the numbers still match the oracle
        np.fill_diagonal(w, 0.0)
        loads = engine.edge_loads(linear_4_2, routing, pair_weights=w)
        oracle = edge_loads_reference(linear_4_2, routing, w)
        assert np.abs(loads - oracle).max() <= ATOL

    @pytest.mark.parametrize(
        "placement_kind,make_routing,weighted,expected",
        [
            (
                "random",
                lambda: OrderedDimensionalRouting(2),
                True,
                VectorizedBackend,
            ),
            ("random", UnorderedDimensionalRouting, False, VectorizedBackend),
            ("subtorus", AllMinimalPaths, False, FFTBackend),
            ("random", UnrestrictedODR, False, DisplacementBackend),
            ("linear", AllMinimalPaths, True, DisplacementBackend),
            (
                "linear",
                lambda: FaultMaskedRouting(UnorderedDimensionalRouting(), [0]),
                False,
                ReferenceBackend,
            ),
        ],
        ids=[
            "dimension-order-vectorized",
            "unweighted-udr-vectorized",
            "coset-fft",
            "non-coset-displacement",
            "weighted-displacement",
            "fault-masked-reference",
        ],
    )
    def test_dispatch_rule(
        self, torus_4_2, placement_kind, make_routing, weighted, expected
    ):
        placement = {
            "linear": linear_placement(torus_4_2),
            "subtorus": single_subtorus_placement(torus_4_2),
            "random": Placement(torus_4_2, [0, 1, 6, 11], name="non-coset"),
        }[placement_kind]
        routing = make_routing()
        w = None
        if weighted:
            w = hotspot_traffic_weights(
                len(placement), hotspot_index=0, background=1.0
            )
        engine = LoadEngine("auto")
        assert isinstance(engine.backend_for(placement, routing, w), expected)
        loads = engine.edge_loads(placement, routing, pair_weights=w)
        oracle = edge_loads_reference(placement, routing, w)
        quantum = routing_load_quantum(routing, torus_4_2.d)
        if quantum is None:
            assert np.abs(loads - oracle).max() <= ATOL
        else:
            assert np.array_equal(
                snap_loads(loads, quantum), snap_loads(oracle, quantum)
            )


class TestDisplacementCache:
    def test_templates_are_memoized(self, linear_4_2):
        cache = DisplacementPathCache(
            linear_4_2.torus, OrderedDimensionalRouting(2)
        )
        t1 = cache.template((1, 2))
        t2 = cache.template((1, 2))
        assert t1 is t2
        assert len(cache) == 1

    def test_template_weights_sum_to_lee_distance(self, torus_5_2):
        # each pair's fractional contributions sum to its Lee distance
        cache = DisplacementPathCache(torus_5_2, AllMinimalPaths())
        tpl = cache.template((2, 1))
        assert tpl.weight.sum() == pytest.approx(3.0)
        assert tpl.num_paths == 3

    def test_cache_rejects_non_invariant_routing(self, torus_4_2):
        masked = FaultMaskedRouting(OrderedDimensionalRouting(2), [0])
        with pytest.raises(EngineError):
            DisplacementPathCache(torus_4_2, masked)

    def test_cache_reuse_across_calls(self, linear_4_2):
        routing = OrderedDimensionalRouting(2)
        cache = DisplacementPathCache(linear_4_2.torus, routing)
        first = displacement_edge_loads(linear_4_2, routing, cache=cache)
        n_templates = len(cache)
        second = displacement_edge_loads(linear_4_2, routing, cache=cache)
        assert len(cache) == n_templates
        assert np.array_equal(first, second)

    def test_asymmetric_placement(self, torus_5_2):
        # not closed under translation: every displacement class is small
        placement = Placement(
            torus_5_2, torus_5_2.node_ids([(0, 0), (1, 2), (3, 4), (4, 1)])
        )
        for routing in (OrderedDimensionalRouting(2), AllMinimalPaths()):
            loads = displacement_edge_loads(placement, routing)
            oracle = edge_loads_reference(placement, routing)
            assert np.abs(loads - oracle).max() <= ATOL


class TestEngineErrors:
    def test_unknown_backend(self):
        with pytest.raises(EngineError):
            LoadEngine("warp-drive")

    def test_vectorized_rejects_weighted_udr(self, linear_4_2):
        w = np.ones((len(linear_4_2), len(linear_4_2)))
        engine = LoadEngine("vectorized")
        with pytest.raises(EngineError):
            engine.edge_loads(
                linear_4_2, UnorderedDimensionalRouting(), pair_weights=w
            )

    def test_vectorized_rejects_unknown_routing(self, linear_4_2):
        with pytest.raises(EngineError):
            LoadEngine("vectorized").edge_loads(linear_4_2, AllMinimalPaths())

    def test_displacement_rejects_masked_routing(self, linear_4_2):
        masked = FaultMaskedRouting(OrderedDimensionalRouting(2), [0])
        with pytest.raises(EngineError):
            LoadEngine("displacement").edge_loads(linear_4_2, masked)

    def test_zero_path_pair_raises_load_error(self, torus_4_2):
        placement = Placement(torus_4_2, [0, 1])
        odr = OrderedDimensionalRouting(2)
        # node 0 = (0,0), node 1 = (0,1): the unique ODR path 0 -> 1 uses
        # the single +dim1 link out of node 0; failing it empties the set
        masked = FaultMaskedRouting(
            odr, [torus_4_2.edges.edge_id(0, 1, +1)], strict=False
        )
        with pytest.raises(LoadError):
            LoadEngine("reference").edge_loads(placement, masked)

    def test_resolve_engine_rejects_garbage(self):
        with pytest.raises(EngineError):
            resolve_engine(42)


class TestDefaultEngine:
    def test_default_is_auto(self):
        set_default_engine(None)
        assert get_default_engine().backend_name == "auto"

    def test_using_engine_restores(self):
        set_default_engine(None)
        before = get_default_engine()
        with using_engine("reference") as eng:
            assert eng.backend_name == "reference"
            assert get_default_engine() is eng
        assert get_default_engine() is before

    def test_using_engine_none_is_noop(self):
        set_default_engine("vectorized")
        try:
            with using_engine(None) as eng:
                assert eng.backend_name == "vectorized"
        finally:
            set_default_engine(None)

    def test_set_by_name(self):
        try:
            eng = set_default_engine("displacement")
            assert eng.backend_name == "displacement"
            assert get_default_engine() is eng
        finally:
            set_default_engine(None)

    def test_available_backends(self):
        names = available_backends()
        assert set(names) == {
            "auto",
            "reference",
            "vectorized",
            "fft",
            "displacement",
        }
