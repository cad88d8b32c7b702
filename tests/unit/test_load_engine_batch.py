"""Tests for batched multi-placement evaluation — ``edge_loads_many``.

The facade contract: row ``b`` of the batch is *bit*-identical to a
sequential ``edge_loads(placements[b], ...)`` call, for every backend,
whatever mix of coset and non-coset placements the batch holds, and
across process boundaries, where each worker builds its own plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EngineError
from repro.exec import ExecPolicy, ExecTask, ResilientExecutor
from repro.load.engine import LoadEngine
from repro.load.plancache import PlanCache, using_plan_cache
from repro.obs import Tracer, using_tracer
from repro.placements.base import Placement
from repro.placements.fully import single_subtorus_placement
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

K, D = 5, 2


def _mixed_batch(torus):
    """Coset placements (linear, subtorus) and non-cosets (random)."""
    return [
        linear_placement(torus),
        linear_placement(torus, offset=1),
        linear_placement(torus, coefficients=[1, 2]),
        random_placement(torus, size=torus.k, seed=7),
        random_placement(torus, size=torus.k + 2, seed=11),
        single_subtorus_placement(torus),
    ]


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["fft", "displacement", "reference"])
    def test_batched_rows_match_sequential(self, backend):
        torus = Torus(K, D)
        placements = _mixed_batch(torus)
        routing = OrderedDimensionalRouting(D)
        with using_plan_cache(PlanCache()):
            engine = LoadEngine(backend)
            batched = engine.edge_loads_many(placements, routing)
            rows = [engine.edge_loads(p, routing) for p in placements]
        assert batched.shape == (len(placements), torus.num_edges)
        assert np.array_equal(batched, np.stack(rows))

    def test_udr_batch_matches_sequential(self):
        torus = Torus(4, 3)
        placements = [
            linear_placement(torus),
            random_placement(torus, size=6, seed=3),
        ]
        routing = UnorderedDimensionalRouting()
        with using_plan_cache(PlanCache()):
            engine = LoadEngine("fft")
            batched = engine.edge_loads_many(placements, routing)
            rows = [engine.edge_loads(p, routing) for p in placements]
        assert np.array_equal(batched, np.stack(rows))

    def test_chunking_does_not_change_the_result(self):
        torus = Torus(K, D)
        placements = _mixed_batch(torus)
        routing = OrderedDimensionalRouting(D)
        with using_plan_cache(PlanCache()):
            engine = LoadEngine("fft")
            whole = engine.edge_loads_many(placements, routing)
            chunked = engine.edge_loads_many(placements, routing, batch_size=2)
        assert np.array_equal(whole, chunked)

    def test_emax_many_matches_per_placement_emax(self):
        torus = Torus(K, D)
        placements = _mixed_batch(torus)
        routing = OrderedDimensionalRouting(D)
        with using_plan_cache(PlanCache()):
            engine = LoadEngine("fft")
            batched = engine.emax_many(placements, routing)
            single = [engine.emax(p, routing) for p in placements]
        assert batched.dtype == np.float64
        assert batched.tolist() == single

    def test_single_placement_batch(self):
        torus = Torus(K, D)
        placement = linear_placement(torus)
        routing = OrderedDimensionalRouting(D)
        engine = LoadEngine("fft")
        batched = engine.edge_loads_many([placement], routing)
        assert np.array_equal(batched[0], engine.edge_loads(placement, routing))


class TestValidation:
    def test_empty_batch_raises(self):
        with pytest.raises(EngineError, match="at least one placement"):
            LoadEngine("fft").edge_loads_many([], OrderedDimensionalRouting(D))

    def test_mixed_torus_batch_raises(self):
        placements = [
            linear_placement(Torus(4, 2)),
            linear_placement(Torus(5, 2)),
        ]
        with pytest.raises(EngineError, match="one torus"):
            LoadEngine("fft").edge_loads_many(
                placements, OrderedDimensionalRouting(2)
            )

    def test_non_positive_batch_size_raises(self):
        placements = [linear_placement(Torus(4, 2))]
        with pytest.raises(EngineError, match="batch_size"):
            LoadEngine("fft").edge_loads_many(
                placements, OrderedDimensionalRouting(2), batch_size=0
            )


class TestObservability:
    def test_batch_metrics_land_on_the_tracer(self):
        torus = Torus(K, D)
        placements = _mixed_batch(torus)
        tracer = Tracer(label="batch-test")
        with using_tracer(tracer), using_plan_cache(PlanCache()):
            LoadEngine("fft").edge_loads_many(
                placements, OrderedDimensionalRouting(D), batch_size=4
            )
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["engine.batched_placements"] == 6
        hist = snapshot["histograms"]["engine.batch_size"]
        assert hist["count"] == 2  # blocks of 4 + 2
        assert hist["total"] == 6
        assert snapshot["counters"]["plancache.misses"] == 1


# ------------------------------------------------- cross-process determinism

_POOL_K, _POOL_D = 4, 2


def _pool_edge_loads(node_ids):
    """Worker-side evaluation against the worker's own plan cache."""
    torus = Torus(_POOL_K, _POOL_D)
    routing = OrderedDimensionalRouting(_POOL_D)
    placement = Placement(torus, list(node_ids), name="pool")
    return LoadEngine("fft").edge_loads(placement, routing).tobytes()


class TestCrossProcessDeterminism:
    def test_warmed_workers_reproduce_parent_loads_bitwise(self):
        """Same content address, same bytes — in every worker process."""
        torus = Torus(_POOL_K, _POOL_D)
        routing = OrderedDimensionalRouting(_POOL_D)
        placements = [
            linear_placement(torus),
            linear_placement(torus, offset=2),
            random_placement(torus, size=4, seed=5),
            single_subtorus_placement(torus),
        ]
        with using_plan_cache(PlanCache()):
            parent = LoadEngine("fft").edge_loads_many(placements, routing)
        executor = ResilientExecutor(
            _pool_edge_loads,
            jobs=2,
            policy=ExecPolicy(retries=1),
            label="batch-determinism",
        )
        tasks = [
            ExecTask(f"p-{i}", tuple(int(n) for n in p.node_ids))
            for i, p in enumerate(placements)
        ]
        remote = executor.run(tasks).in_task_order(tasks)
        for row, raw in zip(parent, remote):
            assert row.tobytes() == raw
