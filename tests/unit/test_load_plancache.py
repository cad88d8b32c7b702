"""Tests for repro.load.plancache — the spectral plan LRU.

The cache's contract has three independent pieces, each pinned here:
structural fingerprints (shape and routing structure, never ``id()``), bounded
LRU residency (recency order, eviction at capacity), and the ambient
install/restore convention shared with ``using_tracer``.  The cache keeps
no tallies of its own: its lookups are read from the ambient tracer's
``plancache.*`` counters.
"""

from __future__ import annotations

import pytest

from repro.errors import EngineError
from repro.load.plancache import (
    DEFAULT_PLAN_CAPACITY,
    MAX_PLAN_ENTRIES,
    PlanCache,
    SpectralPlan,
    current_plan_cache,
    using_plan_cache,
)
from repro.obs import Tracer, using_tracer
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus


@pytest.fixture
def tracer():
    """A tracer installed for the test, whose counters tally the lookups."""
    tracer = Tracer(label="plancache-test")
    with using_tracer(tracer):
        yield tracer


def _tallies(tracer):
    """``(hits, misses, evictions)`` from the tracer's plan-cache counters."""
    counters = tracer.metrics.snapshot()["counters"]
    return (
        counters.get("plancache.hits", 0),
        counters.get("plancache.misses", 0),
        counters.get("plancache.evictions", 0),
    )


class TestFingerprints:
    def test_fingerprint_is_structural_not_identity(self):
        cache = PlanCache()
        first = cache.get(Torus(4, 2), OrderedDimensionalRouting(2))
        second = cache.get(Torus(4, 2), OrderedDimensionalRouting(2))
        assert first is second
        assert len(cache) == 1

    def test_fingerprint_separates_configurations(self, tracer):
        cache = PlanCache()
        torus = Torus(4, 2)
        plans = {
            id(cache.get(torus, OrderedDimensionalRouting(2))),
            id(cache.get(torus, UnorderedDimensionalRouting())),
            id(cache.get(Torus(5, 2), OrderedDimensionalRouting(2))),
        }
        assert len(plans) == 3
        assert _tallies(tracer) == (0, 3, 0)

    def test_routing_order_lands_in_the_fingerprint(self):
        from repro.routing.dimension_order import DimensionOrderRouting

        cache = PlanCache()
        torus = Torus(3, 3)
        forward = cache.get(torus, DimensionOrderRouting((0, 1, 2)))
        reversed_ = cache.get(torus, DimensionOrderRouting((2, 1, 0)))
        assert forward is not reversed_


class TestLRU:
    def test_get_builds_once_then_hits(self, tracer):
        cache = PlanCache()
        torus, routing = Torus(4, 2), OrderedDimensionalRouting(2)
        first = cache.get(torus, routing)
        second = cache.get(torus, routing)
        assert first is second
        assert isinstance(first, SpectralPlan)
        assert _tallies(tracer) == (1, 1, 0)

    def test_eviction_drops_least_recently_used(self, tracer):
        cache = PlanCache(capacity=2)
        odr = OrderedDimensionalRouting(2)
        a, b, c = Torus(3, 2), Torus(4, 2), Torus(5, 2)
        plan_a = cache.get(a, odr)
        cache.get(b, odr)
        cache.get(a, odr)  # refresh a -> b is now the LRU entry
        cache.get(c, odr)  # evicts b
        assert len(cache) == 2
        assert _tallies(tracer) == (1, 3, 1)
        # b must be rebuilt (a fresh miss), a is still resident
        assert cache.get(a, odr) is plan_a
        cache.get(b, odr)
        assert _tallies(tracer) == (2, 4, 2)

    def test_clear_keeps_the_tallies(self, tracer):
        cache = PlanCache()
        odr = OrderedDimensionalRouting(2)
        cache.get(Torus(3, 2), odr)
        cache.clear()
        assert len(cache) == 0
        assert _tallies(tracer) == (0, 1, 0)
        cache.get(Torus(3, 2), odr)  # cleared plans are rebuilt
        assert _tallies(tracer) == (0, 2, 0)

    def test_coset_verdicts_are_bounded_and_cleared(self):
        cache = PlanCache(capacity=1)
        for i in range(MAX_PLAN_ENTRIES):
            cache.remember_verdict(i, b"key")
        assert cache.verdict(0) == b"key"
        cache.remember_verdict("one more", b"key")  # full: starts over
        assert cache.verdict(0) is None
        assert cache.verdict("one more") == b"key"
        cache.clear()
        assert cache.verdict("one more") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError, match="capacity"):
            PlanCache(capacity=0)

    def test_default_capacity(self):
        assert PlanCache().capacity == DEFAULT_PLAN_CAPACITY

    def test_metrics_flow_through_the_ambient_tracer(self, tracer):
        cache = PlanCache(capacity=1)
        odr = OrderedDimensionalRouting(2)
        cache.get(Torus(3, 2), odr)
        cache.get(Torus(3, 2), odr)
        cache.get(Torus(4, 2), odr)  # evicts the first plan
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["plancache.hits"] == 1
        assert snapshot["counters"]["plancache.misses"] == 2
        assert snapshot["counters"]["plancache.evictions"] == 1
        assert snapshot["gauges"]["plancache.size"] == 1


class TestAmbientCache:
    def test_using_plan_cache_installs_and_restores(self):
        outer = current_plan_cache()
        mine = PlanCache()
        with using_plan_cache(mine) as installed:
            assert installed is mine
            assert current_plan_cache() is mine
        assert current_plan_cache() is outer

    def test_restores_on_exception(self):
        outer = current_plan_cache()
        with pytest.raises(RuntimeError):
            with using_plan_cache(PlanCache()):
                raise RuntimeError("boom")
        assert current_plan_cache() is outer
