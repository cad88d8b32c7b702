"""Unit tests for the repro.load.engine subsystem."""

import numpy as np
import pytest

from repro.errors import EngineError, InvalidParameterError, LoadError
from repro.load.edge_loads import edge_loads_reference
from repro.load.engine import (
    DisplacementBackend,
    FFTBackend,
    LoadEngine,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    cross_check,
)
from repro.load.odr_loads import odr_edge_loads
from repro.load.path_table import PathTable
from repro.load.plancache import PlanCache, using_plan_cache
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.load.traffic import hotspot_traffic_weights
from repro.load.udr_loads import udr_edge_loads
from repro.obs import Tracer, using_tracer
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.dimension_order import DimensionOrderRouting
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

    @pytest.mark.parametrize("k,d", [(4, 3), (5, 3), (8, 3), (6, 4)])
    def test_udr_loads_sit_on_the_lattice(self, k, d):
        # complete-exchange UDR loads are multiples of 1/d!: every backend
        # returns them on that lattice, so raw loads compare equal
        torus = Torus(k, d)
        routing = UnorderedDimensionalRouting()
        quantum = routing_load_quantum(routing, d)
        random = random_placement(torus, 20, seed=2)
        for placement in (linear_placement(torus), random):
            loads = {
                name: LoadEngine(name).edge_loads(placement, routing)
                for name in ("vectorized", "displacement", "fft", "auto")
            }
            loads["udr_edge_loads"] = udr_edge_loads(placement)
            for name, got in loads.items():
                assert np.array_equal(got, snap_loads(got, quantum)), name
                assert np.array_equal(got, loads["fft"]), name
        oracle = edge_loads_reference(random, routing)
        assert np.abs(loads["vectorized"] - oracle).max() <= ATOL

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
    def test_auto_picks_fft_for_odr_coset(self, linear_4_2):
        engine = LoadEngine("auto")
        routing = OrderedDimensionalRouting(2)
        backend = engine.backend_for(linear_4_2, routing)
        assert isinstance(backend, FFTBackend)
        assert np.array_equal(
            engine.edge_loads(linear_4_2, routing),
            LoadEngine("vectorized").edge_loads(linear_4_2, routing),
        )

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

    def test_auto_udr_weighted_uses_vectorized(self, linear_4_2):
        engine = LoadEngine("auto")
        routing = UnorderedDimensionalRouting()
        w = np.ones((len(linear_4_2), len(linear_4_2)))
        assert isinstance(
            engine.backend_for(linear_4_2, routing, w), VectorizedBackend
        )

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
            (
                "linear",
                lambda: OrderedDimensionalRouting(2),
                False,
                FFTBackend,
            ),
            ("linear", UnorderedDimensionalRouting, False, FFTBackend),
            (
                "linear",
                lambda: DimensionOrderRouting((1, 0)),
                False,
                FFTBackend,
            ),
            (
                "two-class",
                lambda: OrderedDimensionalRouting(2),
                False,
                FFTBackend,
            ),
            ("two-class", UnorderedDimensionalRouting, False, FFTBackend),
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
            "odr-coset-fft",
            "udr-coset-fft",
            "permuted-dor-coset-fft",
            "odr-two-class-fft",
            "udr-two-class-fft",
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
            # classes 2 and 3 of x + y: |H| = 4, D = 3 < |P| = 8
            "two-class": multiple_linear_placement(torus_4_2, 2, base_offset=2),
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


def _enumerated_table(torus, routing):
    return PlanCache().get(torus, routing).enumerated_table()


class TestDisplacementCache:
    """The displacement backend's path table: rows from ``routing.paths``."""

    def test_templates_are_memoized(self, linear_4_2, monkeypatch):
        routing = OrderedDimensionalRouting(2)
        table = _enumerated_table(linear_4_2.torus, routing)
        calls = []
        paths = routing.paths

        def counting_paths(*args):
            calls.append(args[2])
            return paths(*args)

        monkeypatch.setattr(routing, "paths", counting_paths)
        src = table.node_ext[[0, 0, 5]]
        dst = table.node_ext[[6, 6, 11]]  # all three pairs differ by (1, 2)
        first = table.codes(src, dst)
        assert len(calls) == 1 and table.filled.sum() == 1
        assert np.array_equal(table.codes(src, dst), first)
        assert len(calls) == 1

    def test_template_weights_sum_to_lee_distance(self, torus_5_2):
        # each pair's fractional contributions sum to its Lee distance
        table = _enumerated_table(torus_5_2, AllMinimalPaths())
        code = torus_5_2.node_id((2, 1))
        edges = table.edges(table.node_ext[0], table.node_ext[code])
        numerators = np.rint(table.weights[code] * table.paths[code])
        assert table.paths[code] == 3
        assert numerators.sum() / table.paths[code] == 3.0
        assert np.count_nonzero(edges != table.sink) == np.count_nonzero(
            numerators
        )

    def test_cache_rejects_non_invariant_routing(self, torus_4_2):
        masked = FaultMaskedRouting(OrderedDimensionalRouting(2), [0])
        with pytest.raises(EngineError):
            PathTable(torus_4_2, masked)
        with pytest.raises(EngineError):
            PlanCache().get(torus_4_2, masked)

    def test_cache_reuse_across_calls(self, linear_4_2):
        routing = OrderedDimensionalRouting(2)
        table = _enumerated_table(linear_4_2.torus, routing)
        first = table.loads(linear_4_2)
        n_rows = int(table.filled.sum())
        second = table.loads(linear_4_2)
        assert int(table.filled.sum()) == n_rows
        assert np.array_equal(first, second)

    def test_backend_keeps_one_plan_for_fresh_routing_instances(
        self, torus_5_2, monkeypatch
    ):
        # each call brings a new routing instance; the rows live in the
        # plan cache, keyed by the routing's structure, not its id
        placement = Placement(
            torus_5_2, torus_5_2.node_ids([(0, 0), (1, 2), (3, 4), (4, 1)])
        )
        builds: dict = {}
        paths = AllMinimalPaths.paths

        def counting_paths(routing, torus, p, q):
            builds[q] = builds.get(q, 0) + 1
            return paths(routing, torus, p, q)

        monkeypatch.setattr(AllMinimalPaths, "paths", counting_paths)
        plans = PlanCache()
        engine = LoadEngine("displacement")
        tracer = Tracer()
        with using_plan_cache(plans), using_tracer(tracer):
            rows = [
                engine.edge_loads(placement, AllMinimalPaths())
                for _ in range(20)
            ]
        assert len(plans) == 1
        assert tracer.metrics.counter("plancache.misses").value == 1
        assert set(builds.values()) == {1}
        plan = plans.get(torus_5_2, AllMinimalPaths())
        assert int(plan.enumerated_table().filled.sum()) == len(builds)
        for row in rows[1:]:
            assert np.array_equal(row, rows[0])

    def test_asymmetric_placement(self, torus_5_2):
        # not closed under translation: every displacement class is small
        placement = Placement(
            torus_5_2, torus_5_2.node_ids([(0, 0), (1, 2), (3, 4), (4, 1)])
        )
        for routing in (OrderedDimensionalRouting(2), AllMinimalPaths()):
            loads = LoadEngine("displacement").edge_loads(placement, routing)
            oracle = edge_loads_reference(placement, routing)
            assert np.abs(loads - oracle).max() <= ATOL


class TestEngineErrors:
    def test_unknown_backend(self):
        with pytest.raises(EngineError):
            LoadEngine("warp-drive")

    def test_vectorized_serves_weighted_udr(self, linear_4_2):
        m = len(linear_4_2)
        w = np.arange(m * m, dtype=np.float64).reshape(m, m) % 4
        np.fill_diagonal(w, 0.0)
        routing = UnorderedDimensionalRouting()
        loads = LoadEngine("vectorized").edge_loads(
            linear_4_2, routing, pair_weights=w
        )
        oracle = edge_loads_reference(linear_4_2, routing, w)
        assert np.array_equal(snap_loads(loads, 2), snap_loads(oracle, 2))

    @pytest.mark.parametrize(
        "backend", ["vectorized", "displacement", "fft", "odr_edge_loads"]
    )
    def test_malformed_traffic_matrix_is_named(self, linear_4_2, backend):
        w = np.ones((len(linear_4_2), len(linear_4_2) + 1))
        with pytest.raises(InvalidParameterError, match="pair_weights"):
            if backend == "odr_edge_loads":
                odr_edge_loads(linear_4_2, pair_weights=w)
            else:
                LoadEngine(backend).edge_loads(
                    linear_4_2, OrderedDimensionalRouting(2), pair_weights=w
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


class TestDefaultEngine:
    def test_available_backends(self):
        assert LoadEngine().backend_name == "auto"
        names = available_backends()
        assert set(names) == {
            "auto",
            "reference",
            "vectorized",
            "fft",
            "displacement",
        }
