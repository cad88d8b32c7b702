"""The closed-form path rows behind one backend interface.

:class:`VectorizedBackend` serves the routings whose
:class:`~repro.load.path_table.PathTable` rows have a closed form — the
dimension-order family (the paper's ODR included) and UDR — under any
traffic, through the table of the ambient plan cache: complete exchange
on a large enough placement ring by ring from per-ring sender and
receiver counts (:mod:`repro.load.rings`), every other call one row
gather and one ``np.bincount`` per chunk of pairs.  Anything else is
unsupported here; the ``auto`` engine falls through to the displacement
or reference backends instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.path_table import has_closed_form
from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["VectorizedBackend"]


class VectorizedBackend(LoadBackend):
    """Exact loads through the closed-form path-table rows."""

    name = "vectorized"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        return has_closed_form(routing, placement.torus.d)

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        if not self.supports(placement, routing, pair_weights):
            raise EngineError(
                f"no closed-form path rows for routing {routing.name!r}; use "
                "the 'displacement' (translation-invariant routings) or "
                "'reference' backend"
            )
        plan = current_plan_cache().get(placement.torus, routing)
        return plan.table.loads(placement, pair_weights)
