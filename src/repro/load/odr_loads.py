"""Exact edge loads for dimension-ordered routing.

ODR (and any fixed dimension-order variant) routes each ordered pair over
exactly one canonical path, so Definition 4 degenerates to *counting the
pairs whose path crosses each edge*.  The path of ``p → q`` is the path
of ``0 → (q - p) mod k`` shifted by ``p``, one row of the configuration's
:class:`~repro.load.path_table.PathTable`.  A full evaluation of a large
placement counts the crossings ring by ring, as products of per-ring
sender and receiver counts (:mod:`repro.load.rings`, Theorem 2's
count); a small one gathers the rows of all :math:`|P|^2` pairs and
counts their edges with one ``np.bincount`` per chunk.

Incremental updates (a processor added or swapped) touch only
:math:`O(|P|)` pairs; a batch of such pairs — across any number of
placements — is one gather from the same table (:meth:`PathTable.edges`)
and one ``np.bincount`` (:meth:`PathTable.edge_counts`).
"""

from __future__ import annotations

import numpy as np

from repro.load.path_table import PathTable
from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.torus.topology import Torus

__all__ = [
    "odr_edge_loads",
    "odr_edge_loads_swap_delta",
    "odr_edge_loads_add_delta",
]


def odr_edge_loads(
    placement: Placement,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-edge loads under ODR (ascending dimension order)."""
    return _odr_table(placement.torus).loads(placement, pair_weights)


def _odr_table(torus: Torus) -> PathTable:
    """The ODR :class:`PathTable` of ``torus``, from the plan cache."""
    return current_plan_cache().get(torus, OrderedDimensionalRouting(torus.d)).table


def _exchange_counts(table: PathTable, node, others) -> np.ndarray:
    """Edge counts of the pairs ``node ↔ others``, both directions.

    ``node`` is ``(..., d)`` and ``others`` ``(..., m, d)`` coordinates;
    the result is ``(..., num_edges)``.
    """
    node = table.ext(node)[..., None]
    others = table.ext(others)
    edges = np.concatenate(
        [table.edges(node, others), table.edges(others, node)], axis=-2
    )
    return table.edge_counts(edges)


def odr_edge_loads_swap_delta(
    torus,
    loads: np.ndarray,
    kept_coords: np.ndarray,
    removed_coord,
    added_coord,
) -> np.ndarray:
    """Incremental ODR loads after swapping one processor for a router.

    Given the complete-exchange ``loads`` of a placement, the coordinates
    of the *unchanged* processors (``kept_coords``, the placement minus the
    removed node), and the swap, returns the loads of the new placement in
    :math:`O(|P|)` pair work instead of :math:`O(|P|^2)` — only the pairs
    touching the swapped node change:

    * subtract ``removed ↔ kept`` (both directions),
    * add ``added ↔ kept`` (both directions).

    Leading axes batch independent swaps: ``kept_coords`` ``(..., m, d)``
    with ``removed_coord``/``added_coord`` ``(..., d)`` and ``loads``
    broadcastable to ``(..., num_edges)`` evaluate every swap in one
    path-table scatter (:class:`~repro.load.path_table.PathTable`).  The
    input ``loads`` array is not modified.
    """
    table = _odr_table(torus)
    kept = np.atleast_2d(np.asarray(kept_coords, dtype=np.int64))
    gained = _exchange_counts(table, added_coord, kept)
    lost = _exchange_counts(table, removed_coord, kept)
    return np.asarray(loads, dtype=np.float64) + (gained - lost)


def odr_edge_loads_add_delta(
    torus,
    loads: np.ndarray,
    kept_coords: np.ndarray,
    added_coord,
) -> np.ndarray:
    """Incremental ODR loads after *adding* one processor to a placement.

    The growth primitive behind the branch-and-bound engine
    (:mod:`repro.placements.exact_search`): given the complete-exchange
    ``loads`` of the placement whose processors sit at ``kept_coords``,
    returns the loads after a processor is added at ``added_coord`` in
    :math:`O(|P|)` pair work instead of :math:`O(|P|^2)` — only the
    ``added ↔ kept`` pairs (both directions) are new.

    Leading axes batch independent placements: ``loads``
    ``(..., num_edges)``, ``kept_coords`` ``(..., m, d)`` and
    ``added_coord`` ``(..., d)`` grow every row in one path-table scatter
    (:class:`~repro.load.path_table.PathTable`) — the exact search grows
    a block of prefixes' canonical children, each with every surviving
    symmetry variant of its parent, this way.

    Since every pair contributes non-negative load, growing a placement
    one node at a time makes the partial :math:`E_{max}` monotone
    non-decreasing — the property the search's pruning relies on.

    The input ``loads`` array is not modified.
    """
    kept = np.atleast_2d(np.asarray(kept_coords, dtype=np.int64))
    added = _exchange_counts(_odr_table(torus), added_coord, kept)
    return np.asarray(loads, dtype=np.float64) + added
