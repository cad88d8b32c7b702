"""The closed-form vectorized kernels behind one backend interface.

:func:`pair_kernel` is the package's one routing → kernel mapping:
dimension-ordered routings (including the paper's ODR) map to
:func:`repro.load.odr_loads.accumulate_pair_loads` in their order, UDR to
:func:`repro.load.udr_loads.accumulate_udr_pair_loads` (complete exchange
only — the permutation-counting identity it evaluates has no weighted
form yet).  :class:`VectorizedBackend` serves what it maps through
:func:`repro.load.odr_loads.dimension_order_edge_loads` and
:func:`repro.load.udr_loads.udr_edge_loads`, which run those kernels
over every ordered pair of a placement; the FFT backend
(:mod:`repro.load.engine.fft`) runs them over the pairs ``0 → δ`` of a
difference class to build the class's usage tensor.  Anything else is
unsupported here; the ``auto`` engine falls through to the displacement
or reference backends instead.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.errors import EngineError
from repro.load.engine.base import LoadBackend
from repro.load.odr_loads import (
    accumulate_pair_loads,
    dimension_order_edge_loads,
)
from repro.load.udr_loads import accumulate_udr_pair_loads, udr_edge_loads
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.udr import UnorderedDimensionalRouting

__all__ = ["VectorizedBackend", "pair_kernel"]


def pair_kernel(
    routing: RoutingAlgorithm, d: int, weighted: bool = False
) -> Callable[..., None] | None:
    """The vectorized pair-load kernel serving ``routing``, or ``None``.

    The kernel is called as ``kernel(loads, k, d, p, q)`` — plus
    ``weights=`` for weighted traffic — and adds the exact Definition-4
    loads of the pairs ``p → q`` (``(n_pairs, d)`` coordinate arrays)
    into the dense ``2d·k^d`` accumulator ``loads``.  ``None`` means no
    kernel serves the configuration: routings other than UDR and the
    dimension-order family with one entry per dimension, and UDR under
    ``weighted`` traffic.
    """
    if isinstance(routing, DimensionOrderRouting) and len(routing.order) == d:
        return functools.partial(accumulate_pair_loads, order=routing.order)
    if isinstance(routing, UnorderedDimensionalRouting) and not weighted:
        return accumulate_udr_pair_loads
    return None


class VectorizedBackend(LoadBackend):
    """Exact loads through the specialised numpy kernels."""

    name = "vectorized"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        return (
            pair_kernel(routing, placement.torus.d, pair_weights is not None)
            is not None
        )

    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        if isinstance(routing, DimensionOrderRouting):
            return dimension_order_edge_loads(
                placement, routing.order, pair_weights=pair_weights
            )
        if isinstance(routing, UnorderedDimensionalRouting):
            if pair_weights is not None:
                raise EngineError(
                    "the vectorized UDR kernel only handles complete "
                    "exchange; use the 'displacement' or 'reference' "
                    "backend for weighted UDR traffic"
                )
            return udr_edge_loads(placement)
        raise EngineError(
            f"no vectorized kernel for routing {routing.name!r}; use the "
            "'displacement' (translation-invariant routings) or "
            "'reference' backend"
        )
