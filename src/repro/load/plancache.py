"""Content-addressed spectral plan cache — shared warm state for the engine.

The FFT backend's per-call cost splits into two parts: work that depends
only on the *configuration* ``(torus shape, routing)`` — displacement
path templates and forward usage spectra — and work that depends on the
*placement* — one indicator transform, one product, one inverse
transform.  Caching the first part per backend instance would make every
fresh :class:`~repro.load.engine.LoadEngine` re-derive it from scratch.

This module hoists that state into a process-wide bounded LRU keyed by a
**content address**: the same JSON-compatible fingerprint scheme
:class:`repro.exec.journal.CheckpointJournal` uses for workload headers,
here over ``(shape, routing, plan-scheme version)``.  Two routing
*instances* with the same structural fingerprint share one plan —
``id()`` never appears in a key, so a worker process addresses the exact
same plans the parent does.

The ambient-policy convention mirrors ``using_engine`` /
``using_exec_policy`` / ``using_tracer``: instrumented code asks
:func:`current_plan_cache` for the cache the caller installed with
:func:`using_plan_cache`; :data:`NULL_PLAN_CACHE` disables reuse without
touching call sites (the CLI's ``--no-plan-cache``).

Observability: every lookup bumps ``plancache.hits`` / ``plancache.misses``
(and ``plancache.evictions`` when the LRU rolls), and the current entry
count lands on the ``plancache.size`` gauge — all through
:mod:`repro.obs`, so disabled tracing costs one no-op call.
"""

from __future__ import annotations

import contextlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator

from repro.errors import EngineError
from repro.load.engine.displacement import DisplacementPathCache
from repro.obs.tracer import current_tracer
from repro.routing.base import RoutingAlgorithm
from repro.torus.topology import Torus

__all__ = [
    "PLAN_SCHEME_VERSION",
    "DEFAULT_PLAN_CAPACITY",
    "DEFAULT_BATCH_SIZE",
    "SpectralPlan",
    "PlanCache",
    "PlanCacheStats",
    "NULL_PLAN_CACHE",
    "plan_fingerprint",
    "plan_key",
    "routing_fingerprint",
    "get_default_plan_cache",
    "set_plan_cache",
    "current_plan_cache",
    "using_plan_cache",
    "default_batch_size",
    "set_default_batch_size",
]

#: bump when the cached plan layout changes incompatibly — a different
#: scheme version is a different content address, never a stale hit.
PLAN_SCHEME_VERSION = 2

#: plans kept by the default LRU before the least-recently-used rolls off.
DEFAULT_PLAN_CAPACITY = 32

#: per-plan bound on memoized spectra entries (cleared wholesale when
#: full).
MAX_PLAN_ENTRIES = 64

#: placements evaluated per spectral block when the caller gives no
#: explicit batch size (the CLI's ``--batch-size``).
DEFAULT_BATCH_SIZE = 64


# --------------------------------------------------------- content address


def routing_fingerprint(routing: RoutingAlgorithm) -> Dict[str, Any]:
    """Structural (not ``id``-based) identity of a routing algorithm.

    Class name, report name, and the dimension permutation for the
    dimension-order family — everything that determines the path set of
    a displacement class for the routings the engine accepts.
    """
    order = getattr(routing, "order", None)
    return {
        "class": type(routing).__name__,
        "name": routing.name,
        "order": None if order is None else [int(i) for i in order],
    }


def plan_fingerprint(torus: Torus, routing: RoutingAlgorithm) -> Dict[str, Any]:
    """The JSON-compatible content address of one spectral plan.

    The same shape a :class:`~repro.exec.journal.CheckpointJournal`
    header carries: exact-match comparable, picklable, journal-able.
    """
    return {
        "scheme": PLAN_SCHEME_VERSION,
        "shape": [int(side) for side in torus.shape],
        "routing": routing_fingerprint(routing),
    }


def plan_key(fingerprint: Dict[str, Any]) -> str:
    """Canonical string form of a fingerprint (the LRU key)."""
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------- plans


class SpectralPlan:
    """The reusable spectral state of one ``(torus, routing)``.

    Holds the displacement path-template cache plus the memo the FFT
    backend fills lazily (values are opaque to this module):
    ``spectra`` maps the sorted difference-set codes of a coset to its
    forward usage-tensor spectra — every coset of one subgroup shares
    an entry — and ``placement_spectra`` aliases them per placement
    id-bytes so warm repeat calls skip the pair pass.
    """

    def __init__(
        self,
        torus: Torus,
        routing: RoutingAlgorithm,
        fingerprint: Dict[str, Any],
    ) -> None:
        self.torus = torus
        self.routing = routing
        self.fingerprint = fingerprint
        self.path_cache = DisplacementPathCache(torus, routing)
        self.spectra: Dict[bytes, Any] = {}
        self.placement_spectra: Dict[bytes, Any] = {}

    @property
    def key(self) -> str:
        return plan_key(self.fingerprint)

    def __repr__(self) -> str:
        return (
            f"SpectralPlan(shape={self.torus.shape}, "
            f"routing={self.routing.name!r}, spectra={len(self.spectra)})"
        )


@dataclass(frozen=True)
class PlanCacheStats:
    """Lookup tallies of one :class:`PlanCache` (monotonic)."""

    hits: int
    misses: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class PlanCache:
    """A bounded LRU of :class:`SpectralPlan` entries, content-addressed.

    Parameters
    ----------
    capacity:
        Maximum resident plans; inserting past it evicts the least
        recently used entry (and bumps ``plancache.evictions``).
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CAPACITY) -> None:
        if capacity < 1:
            raise EngineError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._plans: "OrderedDict[str, SpectralPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------- lookup

    def get(self, torus: Torus, routing: RoutingAlgorithm) -> SpectralPlan:
        """The plan for this configuration, built on first request."""
        fingerprint = plan_fingerprint(torus, routing)
        key = plan_key(fingerprint)
        metrics = current_tracer().metrics
        plan = self._plans.get(key)
        if plan is not None:
            self._hits += 1
            self._plans.move_to_end(key)
            metrics.counter("plancache.hits").add(1)
            return plan
        self._misses += 1
        metrics.counter("plancache.misses").add(1)
        plan = SpectralPlan(torus, routing, fingerprint)
        self._plans[key] = plan
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self._evictions += 1
            metrics.counter("plancache.evictions").add(1)
        metrics.gauge("plancache.size").set(len(self._plans))
        return plan

    # ------------------------------------------------------------ queries

    @property
    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(self._hits, self._misses, self._evictions)

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: str) -> bool:
        return key in self._plans

    def keys(self) -> list[str]:
        """Resident content addresses, least recently used first."""
        return list(self._plans)

    def clear(self) -> None:
        """Drop every resident plan (tallies are kept — they are history)."""
        self._plans.clear()

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"PlanCache(capacity={self.capacity}, plans={len(self)}, "
            f"hits={stats.hits}, misses={stats.misses}, "
            f"evictions={stats.evictions})"
        )


class _NullPlanCache(PlanCache):
    """A cache that never retains — every lookup builds a fresh plan.

    Installed by ``--no-plan-cache``; call sites stay oblivious.
    """

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def get(self, torus: Torus, routing: RoutingAlgorithm) -> SpectralPlan:
        return SpectralPlan(torus, routing, plan_fingerprint(torus, routing))


#: the shared do-nothing cache — plan reuse disabled, semantics unchanged.
NULL_PLAN_CACHE: PlanCache = _NullPlanCache()


# ------------------------------------------------------------ ambient cache

_default_plan_cache: PlanCache | None = None


def get_default_plan_cache() -> PlanCache:
    """The process-wide plan cache used when none was installed."""
    global _default_plan_cache
    if _default_plan_cache is None:
        _default_plan_cache = PlanCache()
    return _default_plan_cache


def set_plan_cache(cache: PlanCache | None) -> PlanCache:
    """Replace the process-wide plan cache.

    ``None`` resets to a fresh default-capacity cache.  Returns the cache
    now in effect.
    """
    global _default_plan_cache
    _default_plan_cache = cache
    return get_default_plan_cache()


def current_plan_cache() -> PlanCache:
    """The ambient plan cache instrumented code should consult."""
    return get_default_plan_cache()


@contextlib.contextmanager
def using_plan_cache(cache: PlanCache | None) -> Iterator[PlanCache]:
    """Temporarily install ``cache`` as the process-wide plan cache.

    ``None`` is a no-op (the current cache stays in effect), matching the
    :func:`repro.load.engine.using_engine` convention so callers can
    thread an optional cache argument straight through.
    """
    global _default_plan_cache
    if cache is None:
        yield get_default_plan_cache()
        return
    previous = _default_plan_cache
    _default_plan_cache = cache
    try:
        yield cache
    finally:
        _default_plan_cache = previous


# ------------------------------------------------------------- batch size

_default_batch_size: int = DEFAULT_BATCH_SIZE


def default_batch_size() -> int:
    """Placements per spectral block when callers pass ``batch_size=None``."""
    return _default_batch_size


def set_default_batch_size(size: int | None) -> int:
    """Set the ambient batch size (``None`` resets to the default)."""
    global _default_batch_size
    if size is None:
        _default_batch_size = DEFAULT_BATCH_SIZE
    else:
        if size < 1:
            raise EngineError(f"batch size must be >= 1, got {size}")
        _default_batch_size = int(size)
    return _default_batch_size
