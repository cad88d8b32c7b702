"""Vectorized exact edge loads for dimension-ordered routing.

ODR (and any fixed dimension-order variant) routes each ordered pair over
exactly one canonical path, so Definition 4 degenerates to *counting the
pairs whose path crosses each edge*.  The path structure lets us do this
without materializing any path:

* While dimension ``s`` is being corrected, the walker sits at the mixed
  coordinate ``(q_1, …, q_{s-1}, x, p_{s+1}, …, p_d)`` with ``x`` sweeping
  the minimal segment from ``p_s`` towards ``q_s``.
* So for every pair we know, per dimension, exactly which edges are
  traversed, and can accumulate them with one ``np.add.at`` per segment
  step — :math:`O(d\\,\\lceil k/2\\rceil)` vectorized passes over the
  ``|P|^2`` pair arrays, no Python-level per-pair loop.

This scales to every sweep size the experiments use (e.g. ``k=20, d=3``:
400 processors, 160 000 pairs) in milliseconds-to-seconds.

Incremental updates (a processor added or swapped) touch only
:math:`O(|P|)` pairs, too few for per-step passes to pay for
themselves.  :class:`OdrPathTable` therefore stores every displacement's
path once, so a batch of such pairs — across any number of placements —
costs one gather and one ``np.bincount``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import RoutingError
from repro.placements.base import Placement
from repro.torus.coords import all_coords
from repro.util.modular import minimal_correction_array

__all__ = [
    "odr_edge_loads",
    "dimension_order_edge_loads",
    "accumulate_pair_loads",
    "OdrPathTable",
    "odr_path_table",
    "odr_edge_loads_swap_delta",
    "odr_edge_loads_add_delta",
]


def odr_edge_loads(
    placement: Placement,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-edge loads under ODR (ascending dimension order)."""
    return dimension_order_edge_loads(
        placement, order=range(placement.torus.d), pair_weights=pair_weights
    )


def dimension_order_edge_loads(
    placement: Placement,
    order,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-edge loads for an arbitrary fixed dimension order.

    Parameters
    ----------
    placement:
        The processor placement ``P``.
    order:
        Permutation of ``range(d)`` — the order dimensions are corrected
        in (``range(d)`` is ODR).
    pair_weights:
        Optional ``(|P|, |P|)`` traffic multiplicities (see
        :func:`repro.load.edge_loads.edge_loads_reference`).  Default:
        complete exchange.

    Returns
    -------
    numpy.ndarray
        ``float64`` loads for all ``2d·k^d`` directed edges.
    """
    torus = placement.torus
    k, d = torus.k, torus.d
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(d)):
        raise RoutingError(f"order must be a permutation of range({d}), got {order}")

    coords = placement.coords()
    m = coords.shape[0]
    # all ordered pairs (i, j), i != j, as flat index arrays
    idx = np.arange(m)
    pi, qi = np.meshgrid(idx, idx, indexing="ij")
    keep = pi != qi
    pi, qi = pi[keep], qi[keep]
    p = coords[pi]  # (n_pairs, d)
    q = coords[qi]

    if pair_weights is not None:
        pair_weights = np.asarray(pair_weights, dtype=np.float64)
        if pair_weights.shape != (m, m):
            raise ValueError(
                f"pair_weights must have shape ({m}, {m}), got {pair_weights.shape}"
            )
        weights = pair_weights[pi, qi]
    else:
        weights = None

    loads = np.zeros(torus.num_edges, dtype=np.float64)
    accumulate_pair_loads(loads, k, d, p, q, order=order, weights=weights)
    return loads


def accumulate_pair_loads(
    loads: np.ndarray,
    k: int,
    d: int,
    p: np.ndarray,
    q: np.ndarray,
    order=None,
    weights=None,
    scale: float = 1.0,
) -> None:
    """Add the dimension-ordered path loads of explicit pairs into ``loads``.

    The workhorse behind :func:`dimension_order_edge_loads` exposed for
    callers that work with pair subsets.  It walks paths hop by hop over
    the given pairs only, so its memory stays linear in the pair count;
    the incremental kernels (:func:`odr_edge_loads_add_delta`,
    :func:`odr_edge_loads_swap_delta`) instead gather whole paths from an
    :class:`OdrPathTable`.

    Parameters
    ----------
    loads:
        Dense per-edge accumulator, modified in place.
    k, d:
        Torus parameters.
    p, q:
        ``(n_pairs, d)`` source/destination coordinate arrays.
    order:
        Dimension-correction order (default ascending = ODR).
    weights:
        Optional ``(n_pairs,)`` per-pair multiplicities.
    scale:
        Multiplied into every contribution (``-1.0`` subtracts pairs — the
        incremental-update primitive).
    """
    order = tuple(range(d)) if order is None else tuple(order)
    p = np.atleast_2d(np.asarray(p, dtype=np.int64))
    q = np.atleast_2d(np.asarray(q, dtype=np.int64))
    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)

    # node id of the walker's position with every coordinate still at p
    base = p @ strides  # (n_pairs,)

    two_d = 2 * d
    for dim in order:
        delta, _tied = minimal_correction_array(p[:, dim], q[:, dim], k)
        hops = np.abs(delta)
        sign = np.sign(delta)  # 0 where no correction needed
        sign_bit = (sign < 0).astype(np.int64)
        max_hops = int(hops.max(initial=0))
        # walker's dim coordinate starts at p[:, dim]
        x = p[:, dim].copy()
        base_wo_dim = base - p[:, dim] * strides[dim]
        for step in range(max_hops):
            active = hops > step
            if not np.any(active):
                break
            node_ids = base_wo_dim[active] + x[active] * strides[dim]
            edge_ids = node_ids * two_d + 2 * dim + sign_bit[active]
            if weights is None:
                np.add.at(loads, edge_ids, scale)
            else:
                np.add.at(loads, edge_ids, scale * weights[active])
            x[active] = np.mod(x[active] + sign[active], k)
        # dimension fully corrected: walker now sits at q in this dim
        base = base_wo_dim + q[:, dim] * strides[dim]


class OdrPathTable:
    """Every ODR path of one torus as a padded edge template.

    ODR is translation invariant: the path ``p → q`` is the path
    ``0 → (q - p) mod k`` shifted by ``p``.  Row ``c`` of the table holds
    the path from the origin to the node whose id is ``c``, as the tail
    offsets and packed ``2*dim + sign_bit`` of its hops — one segment of
    ``k // 2`` slots per dimension, unused slots padded with the sink
    edge id :attr:`sink` (``num_edges``).  The hop walk of
    :func:`accumulate_pair_loads` runs once, vectorized over all ``k^d``
    displacements, when the table is built; afterwards any batch of pairs
    is one gather (:meth:`path_edges`) and one ``np.bincount``
    (:meth:`edge_counts`), however many rows it spans.
    """

    def __init__(self, torus):
        k, d = torus.k, torus.d
        half = k // 2
        disp = all_coords(k, d)  # row c: the displacement with node id c
        n = disp.shape[0]
        self.k = k
        self.two_d = 2 * d
        self.num_edges = torus.num_edges
        #: padding edge id; :meth:`edge_counts` drops its column.
        self.sink = self.num_edges
        self.strides = np.array(
            [k ** (d - 1 - i) for i in range(d)], dtype=np.int64
        )
        steps = np.arange(half)
        offsets = np.zeros((n, d, half, d), dtype=np.min_scalar_type(k))
        dim_sign = np.full(
            (n, d, half), self.sink, dtype=np.min_scalar_type(self.sink)
        )
        walker = np.zeros((n, d), dtype=np.int64)  # corrected prefix of q
        for dim in range(d):
            delta, _tied = minimal_correction_array(0, disp[:, dim], k)
            active = steps[None, :] < np.abs(delta)[:, None]  # (n, half)
            tails = np.repeat(walker[:, None, :], half, axis=1)
            tails[:, :, dim] = np.mod(np.sign(delta)[:, None] * steps, k)
            offsets[:, dim] = np.where(active[..., None], tails, 0)
            dim_sign[:, dim] = np.where(
                active, 2 * dim + (delta < 0)[:, None], self.sink
            )
            walker[:, dim] = disp[:, dim]
        #: ``(k^d, d·(k//2), d)`` hop-tail offsets from the path source.
        self.offsets = offsets.reshape(n, d * half, d)
        #: ``(k^d, d·(k//2))`` packed ``2*dim + sign_bit``, or :attr:`sink`.
        self.dim_sign = dim_sign.reshape(n, d * half)

    def path_edges(self, p, q) -> np.ndarray:
        """Edge ids of the ODR paths ``p → q``.

        ``p`` and ``q`` are broadcastable ``(..., d)`` coordinate arrays;
        the result has shape ``(..., d·(k//2))`` with unused hop slots
        (and every slot of a ``p == q`` pair) set to :attr:`sink`.
        """
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        codes = np.mod(q - p, self.k) @ self.strides
        tails = np.mod(p[..., None, :] + self.offsets[codes], self.k)
        edges = (tails @ self.strides) * self.two_d + self.dim_sign[codes]
        return np.minimum(edges, self.sink)

    def exchange_edges(self, node, others) -> np.ndarray:
        """Edge ids of the pairs ``node ↔ others``, both directions.

        ``node`` is ``(..., d)`` and ``others`` ``(..., m, d)``; the
        result is ``(..., 2m, d·(k//2))``.
        """
        node = np.asarray(node, dtype=np.int64)[..., None, :]
        return np.concatenate(
            [self.path_edges(node, others), self.path_edges(others, node)],
            axis=-2,
        )

    def edge_counts(self, edges: np.ndarray) -> np.ndarray:
        """Per-row edge traversal counts of ``(..., pairs, hops)`` edge ids.

        One ``np.bincount`` over a flat ``(rows, num_edges + 1)`` index —
        the extra column absorbs the padding — returns an int64 array of
        shape ``(..., num_edges)``.
        """
        batch = edges.shape[:-2]
        rows = int(np.prod(batch, dtype=np.int64))
        width = self.num_edges + 1
        flat = edges.reshape(rows, -1) + (np.arange(rows) * width)[:, None]
        counts = np.bincount(flat.ravel(), minlength=rows * width)
        return counts.reshape(batch + (width,))[..., : self.num_edges]


@functools.lru_cache(maxsize=8)
def odr_path_table(torus) -> OdrPathTable:
    """The (cached) :class:`OdrPathTable` of ``torus``."""
    return OdrPathTable(torus)


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
    template scatter (:class:`OdrPathTable`).  The input ``loads`` array
    is not modified.
    """
    table = odr_path_table(torus)
    kept = np.atleast_2d(np.asarray(kept_coords, dtype=np.int64))
    gained = table.edge_counts(table.exchange_edges(added_coord, kept))
    lost = table.edge_counts(table.exchange_edges(removed_coord, kept))
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
    ``added_coord`` ``(..., d)`` grow every row in one template scatter
    (:class:`OdrPathTable`) — the exact search grows all of a node's
    surviving symmetry variants this way.

    Since every pair contributes non-negative load, growing a placement
    one node at a time makes the partial :math:`E_{max}` monotone
    non-decreasing — the property the search's pruning relies on.

    The input ``loads`` array is not modified.
    """
    table = odr_path_table(torus)
    kept = np.atleast_2d(np.asarray(kept_coords, dtype=np.int64))
    added = table.edge_counts(table.exchange_edges(added_coord, kept))
    return np.asarray(loads, dtype=np.float64) + added
