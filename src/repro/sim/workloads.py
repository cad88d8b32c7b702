"""Workload builders: placement + routing → packet lists.

The central one is :func:`complete_exchange_packets` — every processor
sends one message to every other processor, each message's path drawn
uniformly at random from the routing relation (Definition 3's selection
rule).  ``rounds > 1`` repeats the exchange, which sharpens the Monte-Carlo
estimate of the fractional UDR loads.

Routings with closed-form path-table rows (the dimension-order family and
UDR) gather every packet's path at once from the
:class:`~repro.load.path_table.PathTable` of the ambient plan cache; every
other routing (fault-masked, all-minimal, unrestricted ODR) samples pair
by pair from ``routing.paths``.  Both draw the same random stream, so a
seed gives the same packets either way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.errors import InvalidParameterError
from repro.load.path_table import has_closed_form
from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.sim.packet import Packet
from repro.util.itertools_ext import ordered_pair_index_arrays
from repro.util.rng import resolve_rng

__all__ = ["complete_exchange_packets", "build_packets"]


def build_packets(
    placement: Placement,
    routing: RoutingAlgorithm,
    pairs,
    seed=None,
    release_cycle: int = 0,
    start_id: int = 0,
) -> list[Packet]:
    """Packets for explicit ``(src_index, dst_index)`` placement-index pairs.

    Raises
    ------
    InvalidParameterError
        If a pair is not two indices into the placement's processors.
    """
    rng = resolve_rng(seed)
    pairs = _pair_array(pairs, len(placement))
    if has_closed_form(routing, placement.torus.d):
        paths = _table_paths(placement, routing, pairs, rng)
    else:
        paths = _sampled_paths(placement, routing, pairs, rng)
    ids = placement.node_ids
    return [
        Packet(
            packet_id=start_id + n,
            src=src,
            dst=dst,
            edge_ids=path,
            release_cycle=release_cycle,
        )
        for n, (src, dst, path) in enumerate(
            zip(ids[pairs[:, 0]].tolist(), ids[pairs[:, 1]].tolist(), paths)
        )
    ]


def _pair_array(pairs, m: int) -> np.ndarray:
    """``pairs`` as an ``(n, 2)`` index array, every index in ``[0, m)``."""
    shape_error = "pairs must be (src_index, dst_index) tuples"
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    try:
        arr = np.asarray(pairs, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(shape_error) from exc
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidParameterError(shape_error)
    bad = ((arr < 0) | (arr >= m)).any(axis=1)
    if bad.any():
        pair = tuple(arr[np.flatnonzero(bad)[0]].tolist())
        raise InvalidParameterError(
            f"pair {pair} indexes outside the placement's {m} processors"
        )
    return arr


def _sampled_paths(placement, routing, pairs, rng) -> list[tuple[int, ...]]:
    """One path per pair, drawn uniformly from ``routing.paths``."""
    torus = placement.torus
    coords = placement.coords()
    out = []
    for i, j in pairs.tolist():
        paths = routing.paths(torus, coords[i], coords[j])
        out.append(paths[int(rng.integers(len(paths)))].edge_ids)
    return out


def _table_paths(placement, routing, pairs, rng) -> list[tuple[int, ...]]:
    """The same draws as :func:`_sampled_paths`, gathered from path tables.

    A dimension-order routing has one path per pair, so nothing is drawn.
    UDR's ``s!`` paths of a pair differing in ``s`` dimensions are the
    dimension orders that permute those dimensions, in
    ``itertools.permutations`` order; one vector draw picks every pair's
    index, and each pair is gathered from the table of its full order
    (the permutation, then the dimensions that agree).
    """
    torus = placement.torus
    cache = current_plan_cache()
    if not isinstance(routing, UnorderedDimensionalRouting):
        return _gather(cache.get(torus, routing).table, placement, pairs)
    coords = placement.coords()
    differs = coords[pairs[:, 0]] != coords[pairs[:, 1]]
    factorial = np.array([math.factorial(s) for s in range(torus.d + 1)])
    choice = rng.integers(0, factorial[differs.sum(axis=1)])
    orders = list(itertools.permutations(range(torus.d)))
    masks = differs @ (1 << np.arange(torus.d))
    order_of = _udr_order_index(torus.d, orders)[masks, choice]
    paths: list[tuple[int, ...]] = [()] * len(pairs)
    for o in np.unique(order_of):
        rows = np.flatnonzero(order_of == o)
        table = cache.get(torus, DimensionOrderRouting(orders[o])).table
        for row, path in zip(rows.tolist(), _gather(table, placement, pairs[rows])):
            paths[row] = path
    return paths


def _udr_order_index(d: int, orders: list[tuple[int, ...]]) -> np.ndarray:
    """``[mask, i]`` -> index in ``orders`` of the ``i``-th UDR path order.

    ``mask`` has bit ``j`` set when dimension ``j`` differs; the ``i``-th
    permutation of those dimensions is followed by the agreeing ones.
    """
    index = {order: n for n, order in enumerate(orders)}
    out = np.zeros((1 << d, math.factorial(d)), dtype=np.int64)
    for mask in range(1 << d):
        differ = [j for j in range(d) if mask >> j & 1]
        agree = tuple(j for j in range(d) if not mask >> j & 1)
        for i, perm in enumerate(itertools.permutations(differ)):
            out[mask, i] = index[perm + agree]
    return out


def _gather(table, placement, pairs) -> list[tuple[int, ...]]:
    """Each pair's path from ``table``, as edge ids in walk order."""
    ext = table.node_ext[placement.node_ids]
    edges = table.edges(ext[pairs[:, 0]], ext[pairs[:, 1]])
    keep = edges != table.sink
    flat = edges[keep].tolist()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]


def complete_exchange_packets(
    placement: Placement,
    routing: RoutingAlgorithm,
    seed=None,
    rounds: int = 1,
    stagger: int = 0,
) -> list[Packet]:
    """All-to-all personalized communication as a packet list.

    Parameters
    ----------
    placement, routing:
        The configuration under test.
    seed:
        RNG seed for the per-message path choice.
    rounds:
        How many full exchanges to run (each re-samples paths).
    stagger:
        Release-cycle gap between successive rounds (0 = all at once).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    pairs = np.column_stack(ordered_pair_index_arrays(len(placement)))
    rng = resolve_rng(seed)
    packets: list[Packet] = []
    for r in range(rounds):
        packets.extend(
            build_packets(
                placement,
                routing,
                pairs,
                seed=rng,
                release_cycle=r * stagger,
                start_id=len(packets),
            )
        )
    return packets
