"""The displacement backend: path-table rows enumerated by the routing.

:math:`T_k^d` is vertex-transitive, and every routing algorithm the paper
analyzes picks its paths from the per-dimension minimal corrections — a
function of the *displacement* :math:`(q - p) \\bmod k` alone.  For such a
routing the path set :math:`C^A_{p→q}` is the edge-for-edge translation of
:math:`C^A_{0→(q-p)}`, so the fractional Definition-4 contribution of a
pair depends only on its displacement class.

:class:`DisplacementBackend` evaluates any translation-invariant routing,
weighted traffic included, through a
:class:`~repro.load.path_table.PathTable` whose rows all come from
``routing.paths`` of one canonical pair per class (source at the origin),
even where a closed form exists.  The
:math:`O(|P|^2 \\cdot \\text{paths})` path walk of the oracle becomes
:math:`O(\\#\\text{distinct displacements})` enumerations plus the
table's vectorized apply, and the backend stays an independent check on
the closed-form rows the ``vectorized`` and ``fft`` backends use.
"""

from __future__ import annotations

import numpy as np

from repro.load.engine.base import LoadBackend
from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["DisplacementBackend"]


class DisplacementBackend(LoadBackend):
    """Serial backend over the plan's enumerated path table.

    Takes its table from the ambient
    :class:`~repro.load.plancache.PlanCache`, so sweeps that re-analyze
    the same configuration pay the path enumerations once, however many
    routing instances they build.
    """

    name = "displacement"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        return bool(getattr(routing, "translation_invariant", False))

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        plan = current_plan_cache().get(placement.torus, routing)
        return plan.enumerated_table().loads(placement, pair_weights)
