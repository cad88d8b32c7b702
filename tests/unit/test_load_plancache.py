"""Tests for repro.load.plancache — the content-addressed spectral LRU.

The cache's contract has three independent pieces, each pinned here:
content addressing (structural fingerprints, never ``id()``), bounded
LRU residency (recency order, eviction at capacity), and the ambient
install/restore convention shared with ``using_engine``/``using_tracer``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import EngineError
from repro.load.plancache import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_PLAN_CAPACITY,
    NULL_PLAN_CACHE,
    PlanCache,
    SpectralPlan,
    current_plan_cache,
    default_batch_size,
    plan_fingerprint,
    plan_key,
    routing_fingerprint,
    set_default_batch_size,
    set_plan_cache,
    using_plan_cache,
)
from repro.obs import Tracer, using_tracer
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


class TestFingerprints:
    def test_fingerprint_is_structural_not_identity(self):
        torus = Torus(4, 2)
        a = plan_fingerprint(torus, OrderedDimensionalRouting(2))
        b = plan_fingerprint(Torus(4, 2), OrderedDimensionalRouting(2))
        assert a == b
        assert plan_key(a) == plan_key(b)

    def test_fingerprint_separates_configurations(self):
        torus = Torus(4, 2)
        odr = plan_fingerprint(torus, OrderedDimensionalRouting(2))
        udr = plan_fingerprint(torus, UnorderedDimensionalRouting())
        other_shape = plan_fingerprint(Torus(5, 2), OrderedDimensionalRouting(2))
        keys = {plan_key(f) for f in (odr, udr, other_shape)}
        assert len(keys) == 3

    def test_routing_order_lands_in_the_fingerprint(self):
        from repro.routing.dimension_order import DimensionOrderRouting

        forward = routing_fingerprint(DimensionOrderRouting((0, 1, 2)))
        reversed_ = routing_fingerprint(DimensionOrderRouting((2, 1, 0)))
        assert forward["order"] != reversed_["order"]

    def test_key_is_canonical_json(self):
        fingerprint = plan_fingerprint(Torus(3, 2), OrderedDimensionalRouting(2))
        decoded = json.loads(plan_key(fingerprint))
        assert decoded == fingerprint


class TestLRU:
    def test_get_builds_once_then_hits(self):
        cache = PlanCache()
        torus, routing = Torus(4, 2), OrderedDimensionalRouting(2)
        first = cache.get(torus, routing)
        second = cache.get(torus, routing)
        assert first is second
        assert isinstance(first, SpectralPlan)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.hit_rate == 0.5

    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        odr = OrderedDimensionalRouting(2)
        a, b, c = Torus(3, 2), Torus(4, 2), Torus(5, 2)
        plan_a = cache.get(a, odr)
        cache.get(b, odr)
        cache.get(a, odr)  # refresh a -> b is now the LRU entry
        cache.get(c, odr)  # evicts b
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert plan_a.key in cache
        assert plan_key(plan_fingerprint(b, odr)) not in cache
        # b must be rebuilt (a fresh miss), a is still resident
        assert cache.get(a, odr) is plan_a
        misses_before = cache.stats.misses
        cache.get(b, odr)
        assert cache.stats.misses == misses_before + 1

    def test_keys_in_recency_order(self):
        cache = PlanCache(capacity=4)
        odr = OrderedDimensionalRouting(2)
        a, b = Torus(3, 2), Torus(4, 2)
        cache.get(a, odr)
        cache.get(b, odr)
        cache.get(a, odr)
        assert cache.keys() == [
            plan_key(plan_fingerprint(b, odr)),
            plan_key(plan_fingerprint(a, odr)),
        ]

    def test_clear_keeps_the_tallies(self):
        cache = PlanCache()
        cache.get(Torus(3, 2), OrderedDimensionalRouting(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError, match="capacity"):
            PlanCache(capacity=0)

    def test_default_capacity(self):
        assert PlanCache().capacity == DEFAULT_PLAN_CAPACITY

    def test_metrics_flow_through_the_ambient_tracer(self):
        tracer = Tracer(label="plancache-test")
        cache = PlanCache(capacity=1)
        odr = OrderedDimensionalRouting(2)
        with using_tracer(tracer):
            cache.get(Torus(3, 2), odr)
            cache.get(Torus(3, 2), odr)
            cache.get(Torus(4, 2), odr)  # evicts the first plan
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["plancache.hits"] == 1
        assert snapshot["counters"]["plancache.misses"] == 2
        assert snapshot["counters"]["plancache.evictions"] == 1
        assert snapshot["gauges"]["plancache.size"] == 1


class TestNullCache:
    def test_null_cache_never_retains(self):
        torus, odr = Torus(3, 2), OrderedDimensionalRouting(2)
        first = NULL_PLAN_CACHE.get(torus, odr)
        second = NULL_PLAN_CACHE.get(torus, odr)
        assert first is not second
        assert first.key == second.key


class TestAmbientCache:
    def test_using_plan_cache_installs_and_restores(self):
        outer = current_plan_cache()
        mine = PlanCache()
        with using_plan_cache(mine) as installed:
            assert installed is mine
            assert current_plan_cache() is mine
        assert current_plan_cache() is outer

    def test_using_none_is_a_no_op(self):
        outer = current_plan_cache()
        with using_plan_cache(None) as installed:
            assert installed is outer
            assert current_plan_cache() is outer

    def test_restores_on_exception(self):
        outer = current_plan_cache()
        with pytest.raises(RuntimeError):
            with using_plan_cache(PlanCache()):
                raise RuntimeError("boom")
        assert current_plan_cache() is outer

    def test_set_plan_cache_none_resets_to_a_fresh_default(self):
        previous = current_plan_cache()
        try:
            fresh = set_plan_cache(None)
            assert fresh is current_plan_cache()
            assert fresh is not previous
        finally:
            set_plan_cache(previous)


class TestBatchSize:
    def test_set_and_reset(self):
        assert default_batch_size() == DEFAULT_BATCH_SIZE
        try:
            assert set_default_batch_size(8) == 8
            assert default_batch_size() == 8
        finally:
            assert set_default_batch_size(None) == DEFAULT_BATCH_SIZE

    def test_rejects_non_positive(self):
        with pytest.raises(EngineError, match="batch size"):
            set_default_batch_size(0)
        assert default_batch_size() == DEFAULT_BATCH_SIZE
