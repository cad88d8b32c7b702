"""Plan cache — shared warm state for the load engine.

Every load consumer's per-call cost splits into two parts: work that
depends only on the *configuration* ``(torus shape, routing)`` — the
:class:`~repro.load.path_table.PathTable` rows — and work that depends
on the *placement*.  Caching the first part per backend instance would
make every fresh :class:`~repro.load.engine.LoadEngine` re-derive it
from scratch.

This module hoists that state into a process-wide bounded LRU keyed by
a structural fingerprint of the configuration: torus shape, routing
class, routing name and (for the dimension-order family) the dimension
order.  Two routing *instances* with the same structure share one plan,
so fresh engines, fresh routing instances, every backend, the
incremental ODR kernels and the catalog all reuse the same path table.
It is the only place tables are cached.  Each process builds its own
plans.

The ambient convention mirrors ``using_tracer``: instrumented code asks
:func:`current_plan_cache` for the cache the caller installed with
:func:`using_plan_cache`.

Observability: every lookup bumps ``plancache.hits`` / ``plancache.misses``
(and ``plancache.evictions`` when the LRU rolls), and the current entry
count lands on the ``plancache.size`` gauge — all through
:mod:`repro.obs`, so disabled tracing costs one no-op call.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Any, Dict, Iterator, Optional

from repro.errors import EngineError
from repro.load.path_table import PathTable
from repro.obs.tracer import current_tracer
from repro.routing.base import RoutingAlgorithm
from repro.torus.topology import Torus

__all__ = [
    "DEFAULT_PLAN_CAPACITY",
    "SpectralPlan",
    "PlanCache",
    "current_plan_cache",
    "using_plan_cache",
]

#: plans kept by the default LRU before the least-recently-used rolls off.
DEFAULT_PLAN_CAPACITY = 32

#: per-plan bound on the FFT backend's memoized translates (cleared
#: wholesale when full); the verdicts are bounded at this many per plan.
MAX_PLAN_ENTRIES = 64

#: the fingerprint: ``(shape, routing class, routing name, order)``.
_PlanKey = tuple[tuple[int, ...], str, str, Optional[tuple[int, ...]]]


def _plan_key(torus: Torus, routing: RoutingAlgorithm) -> _PlanKey:
    """Structural (not ``id``-based) identity of one configuration.

    Everything that determines the path set of a displacement class for
    the routings the engine accepts.
    """
    order = getattr(routing, "order", None)
    return (
        torus.shape,
        type(routing).__name__,
        routing.name,
        None if order is None else tuple(order),
    )


# ----------------------------------------------------------------- plans


class SpectralPlan:
    """The reusable state of one ``(torus, routing)``.

    Holds the configuration's :class:`~repro.load.path_table.PathTable`
    (closed-form rows where the routing has them) plus the memo the FFT
    backend fills lazily (values are opaque to this module): ``spectra``
    maps the sorted node ids of a placement's translate through the
    origin, ``P - p_0`` with ``p_0`` its smallest node, to that
    translate's exact loads.  Every translate of ``P`` maps to one of
    ``P``'s ``|P| / |H|`` translates through the origin (``H`` its
    translation stabilizer), and :data:`MAX_PLAN_ENTRIES` bounds the
    entries.

    Raises :class:`~repro.errors.EngineError` for a routing that is not
    translation-invariant.
    """

    def __init__(self, torus: Torus, routing: RoutingAlgorithm) -> None:
        self.torus = torus
        self.routing = routing
        self.table = PathTable(torus, routing)
        self._enumerated: Optional[PathTable] = None
        self.spectra: Dict[bytes, Any] = {}

    def enumerated_table(self) -> PathTable:
        """The table whose rows all come from ``routing.paths``.

        Built on first request; it is :attr:`table` itself for routings
        without closed-form rows.
        """
        if self._enumerated is None:
            self._enumerated = (
                self.table
                if self.table.enumerated
                else PathTable(self.torus, self.routing, enumerate_paths=True)
            )
        return self._enumerated

    def __repr__(self) -> str:
        return (
            f"SpectralPlan(shape={self.torus.shape}, "
            f"routing={self.routing.name!r}, spectra={len(self.spectra)})"
        )


class PlanCache:
    """A bounded LRU of :class:`SpectralPlan` entries, keyed by structure.

    Beside the plans it keeps the FFT backend's per-placement verdicts
    (:meth:`verdict`, :meth:`remember_verdict`; values are opaque to
    this module).  A placement's translation stabilizer does not depend
    on the routing, so one verdict serves every plan, and a warm
    placement is recognized without a plan lookup.

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
        self._plans: "OrderedDict[_PlanKey, SpectralPlan]" = OrderedDict()
        self._verdicts: Dict[Any, Any] = {}

    # ------------------------------------------------------------- lookup

    def get(self, torus: Torus, routing: RoutingAlgorithm) -> SpectralPlan:
        """The plan for this configuration, built on first request."""
        key = _plan_key(torus, routing)
        metrics = current_tracer().metrics
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            metrics.counter("plancache.hits").add(1)
            return plan
        metrics.counter("plancache.misses").add(1)
        plan = SpectralPlan(torus, routing)
        self._plans[key] = plan
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            metrics.counter("plancache.evictions").add(1)
        metrics.gauge("plancache.size").set(len(self._plans))
        return plan

    def verdict(self, placement_key: Any) -> Any:
        """The verdict remembered for a placement, or ``None``."""
        return self._verdicts.get(placement_key)

    def remember_verdict(self, placement_key: Any, verdict: Any) -> None:
        """Remember a placement's verdict (cleared wholesale when full)."""
        if len(self._verdicts) >= self.capacity * MAX_PLAN_ENTRIES:
            self._verdicts.clear()
        self._verdicts[placement_key] = verdict

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop every resident plan and verdict."""
        self._plans.clear()
        self._verdicts.clear()

    def __repr__(self) -> str:
        return f"PlanCache(capacity={self.capacity}, plans={len(self)})"


# ------------------------------------------------------------ ambient cache

_plan_cache = PlanCache()


def current_plan_cache() -> PlanCache:
    """The ambient plan cache instrumented code should consult."""
    return _plan_cache


@contextlib.contextmanager
def using_plan_cache(cache: PlanCache) -> Iterator[PlanCache]:
    """Temporarily install ``cache`` as the process-wide plan cache."""
    global _plan_cache
    previous = _plan_cache
    _plan_cache = cache
    try:
        yield cache
    finally:
        _plan_cache = previous
