"""One table of every path of a translation-invariant routing.

:math:`T_k^d` is the Cayley graph of :math:`Z_k^d`, so under a
translation-invariant routing the path set :math:`C^A_{p→q}` is the path
set :math:`C^A_{0→δ}`, ``δ = (q - p) mod k``, shifted by ``p``:
Definition 4's contribution of a pair is a function of its displacement
alone.  :class:`PathTable` stores each displacement's paths once, and
every load consumer in the package reads them from it: the ``vectorized``
and ``displacement`` backends, the FFT backend's translates and
fallbacks, the incremental ODR kernels of the exact and local searches,
and the catalog's block scan.

Layout
------
Row ``c`` holds the paths ``0 → δ`` of the displacement whose node id is
``c``, as a padded list of hops plus, for multi-path routings, a weight
per hop (the fraction of the row's paths through it).  Each hop is an
*extended id* ``ext(tail)·(2d+1) + 2·dim + sign_bit``, where ``ext``
numbers coordinates on the unwrapped ``(2k)^d`` grid; slot ``2d`` marks
padding.  A source coordinate and a tail offset are each below ``k`` per
dimension, so their sum never wraps on that grid: moving a row to its
source ``p`` is one integer add of ``ext(p)·(2d+1)``, and one gather
through the wrap table (``(2k)^d·(2d+1)`` entries) turns extended ids
into torus edge ids, padding into the sink id ``num_edges``.  The code of
``q - p`` is one gather through the same grid, at
``ext(q) - ext(p) + ext(k, …, k)``.

Rows
----
Rows are filled lazily, only for the codes a call needs, from one of two
sources:

* closed forms, vectorized over the requested displacements — the
  dimension-order family (Sec. 6, any order) and UDR (Sec. 7, one slot
  per edge dimension ``j``, set ``A`` of dimensions corrected before it,
  and step, weighted :math:`|A|!\\,|B|!/s!`);
* ``routing.paths`` from the origin, for every other translation-invariant
  routing — and for any routing when the table is built with
  ``enumerate_paths=True``, which keeps the ``displacement`` backend an
  independent check on the closed forms.

Applying the rows
-----------------
:meth:`PathTable.loads` has two exact paths.  Complete exchange on a
closed-form table is counted ring by ring from per-ring sender and
receiver counts (:mod:`repro.load.rings`) when the pair apply's
``|P|(|P|-1)·width`` hop slots would cost more
(:meth:`PathTable.takes_rings`); weighted traffic, enumerated tables and
small placements apply their pairs' rows.

Tables live in the plans of :mod:`repro.load.plancache`, keyed by torus
shape and routing structure.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from repro.errors import EngineError, LoadError
from repro.load.quantize import routing_load_quantum, snap_loads
from repro.load.rings import (
    RING_MAX_RADIUS,
    dimension_order_ring_loads,
    ring_cost,
    ring_terms,
    udr_ring_loads,
)
from repro.load.traffic import validate_pair_weights
from repro.obs.tracer import current_tracer
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.coords import all_coords
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays
from repro.util.modular import minimal_correction_array

__all__ = ["ExtendedGrid", "PathTable", "extended_grid", "has_closed_form"]

#: hop slots gathered per chunk of :meth:`PathTable.loads`; bounds the
#: apply's scratch arrays to about a megabyte whatever the pair count.
_CHUNK_SLOTS = 1 << 16


def has_closed_form(routing: RoutingAlgorithm, d: int) -> bool:
    """Whether ``routing`` has closed-form rows on a ``d``-dimensional torus.

    UDR has them, and so do dimension-order routings with one entry per
    dimension; every other routing's rows come from ``routing.paths``.
    """
    if isinstance(routing, DimensionOrderRouting):
        return len(routing.order) == d
    return isinstance(routing, UnorderedDimensionalRouting)


class ExtendedGrid(NamedTuple):
    """Read-only node tables of :math:`T_k^d` on the unwrapped grid.

    ``ext`` numbers the coordinates of the ``(2k)^d`` grid (strides
    ``ext_strides``), so the sum of two torus coordinates never wraps:
    the node at ``p + h`` is ``ext_node[node_ext[p] + node_ext[h]]``, and
    the node at ``q - p`` is ``ext_node[node_ext[q] - node_ext[p] + shift]``,
    ``shift`` being the extended id of ``(k, …, k)``.  ``coords`` holds
    the coordinates of every node.
    """

    coords: np.ndarray
    ext_strides: np.ndarray
    node_ext: np.ndarray
    ext_node: np.ndarray
    shift: int


@functools.lru_cache(maxsize=32)
def extended_grid(k: int, d: int) -> ExtendedGrid:
    """The :class:`ExtendedGrid` of :math:`T_k^d`, built once per shape.

    The cache holds as many shapes as the default plan cache holds plans.
    """
    ext_strides = np.array(
        [(2 * k) ** (d - 1 - i) for i in range(d)], dtype=np.int64
    )
    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    coords = all_coords(k, d)
    grid = ExtendedGrid(
        coords,
        ext_strides,
        coords @ ext_strides,
        np.mod(all_coords(2 * k, d), k) @ strides,
        k * int(ext_strides.sum()),
    )
    for table in grid[:4]:
        table.flags.writeable = False
    return grid


class PathTable:
    """The paths of every displacement of one ``(torus, routing)``.

    Parameters
    ----------
    torus:
        The host torus.
    routing:
        A routing algorithm with ``translation_invariant = True``.
    enumerate_paths:
        Fill every row from ``routing.paths``, even where a closed form
        exists.

    Raises
    ------
    EngineError
        If the routing does not declare translation invariance — rows
        keyed by displacement would silently produce wrong loads (e.g. for
        fault-masked routings, where failed links break the symmetry).

    Attributes
    ----------
    hops:
        ``(k^d, width)`` extended hop ids per row, padded with slot ``2d``.
    weights:
        ``(k^d, width)`` fraction of the row's paths through each hop, or
        ``None`` for single-path (dimension-order) routings.
    paths:
        ``(k^d,)`` path count per row, the denominator of its weights.
    filled:
        ``(k^d,)`` which rows have been built.
    """

    def __init__(
        self,
        torus: Torus,
        routing: RoutingAlgorithm,
        enumerate_paths: bool = False,
    ) -> None:
        if not getattr(routing, "translation_invariant", False):
            raise EngineError(
                f"routing {routing.name!r} is not translation-invariant; "
                "a path table keyed by displacement would be unsound for it"
            )
        k, d = torus.k, torus.d
        self.torus = torus
        self.routing = routing
        self.enumerated = enumerate_paths or not has_closed_form(routing, d)
        #: hop slots per tail: ``2*dim + sign_bit``, then the padding slot.
        self.slots = 2 * d + 1
        self.pad = 2 * d
        #: padding edge id; :meth:`edge_counts` drops its column.
        self.sink = torus.num_edges
        grid = extended_grid(k, d)
        self.ext_strides = grid.ext_strides
        self._node = grid.ext_node
        wrap = self._node[:, None] * (2 * d) + np.arange(self.slots)
        wrap[:, self.pad] = self.sink
        #: extended hop id -> torus edge id (padding -> :attr:`sink`).
        self.wrap = wrap.ravel().astype(np.int32)
        self._coords = grid.coords
        #: extended id of every node.
        self.node_ext = grid.node_ext
        self._shift = grid.shift
        if self.enumerated:
            width = 0
        elif isinstance(routing, UnorderedDimensionalRouting):
            width = d * (1 << (d - 1)) * (k // 2)
        else:
            width = d * (k // 2)
        n = torus.num_nodes
        self.hops = np.full((n, width), self.pad, dtype=np.int32)
        unit = isinstance(routing, DimensionOrderRouting)
        self.weights = None if unit else np.zeros((n, width))
        self.paths = np.ones(n, dtype=np.int64)
        self.filled = np.zeros(n, dtype=bool)

    @property
    def width(self) -> int:
        """Hop slots per row."""
        return self.hops.shape[1]

    def ext(self, coords) -> np.ndarray:
        """Extended ids of ``(..., d)`` coordinates in ``[0, k)``."""
        return np.asarray(coords, dtype=np.int64) @ self.ext_strides

    # -------------------------------------------------------------- rows

    def codes(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Row codes of the pairs ``src → dst`` (extended ids), rows filled."""
        codes = self._node[dst - src + self._shift]
        self._require(codes)
        return codes

    def _require(self, codes: np.ndarray) -> None:
        missing = ~self.filled[codes]
        if missing.any():
            self._fill(np.unique(codes[missing]))

    def _fill(self, codes: np.ndarray) -> None:
        disp = self._coords[codes]
        if self.enumerated:
            hops, counts, paths = self._enumerated_rows(disp)
        elif isinstance(self.routing, UnorderedDimensionalRouting):
            hops, counts, paths = self._udr_rows(disp)
        else:
            hops, counts, paths = self._dimension_order_rows(disp)
        width = hops.shape[1]
        if width > self.width:
            grow = ((0, 0), (0, width - self.width))
            self.hops = np.pad(self.hops, grow, constant_values=self.pad)
            if self.weights is not None:
                self.weights = np.pad(self.weights, grow)
        self.hops[codes, :width] = hops
        if self.weights is not None:
            self.weights[codes, :width] = counts / paths[:, None]
            self.paths[codes] = paths
        self.filled[codes] = True

    def _dimension_order_rows(self, disp: np.ndarray):
        """The unique path of each displacement, dimensions in order."""
        k = self.torus.k
        steps = np.arange(k // 2)
        hops = []
        corrected = np.zeros(disp.shape[0], dtype=np.int64)  # ext of q's prefix
        for dim in self.routing.order:
            delta, _tied = minimal_correction_array(0, disp[:, dim], k)
            active = steps < np.abs(delta)[:, None]
            tail = corrected[:, None] + (
                np.mod(np.sign(delta)[:, None] * steps, k) * self.ext_strides[dim]
            )
            hop = tail * self.slots + (2 * dim + (delta < 0))[:, None]
            hops.append(np.where(active, hop, self.pad))
            corrected += disp[:, dim] * self.ext_strides[dim]
        return np.concatenate(hops, axis=1), None, None

    def _udr_rows(self, disp: np.ndarray):
        """UDR's :math:`s!` paths of each displacement, aggregated per hop.

        The edge of dimension ``j`` whose tail has the dimensions of ``A``
        already at ``q`` and those of ``B`` still at ``p`` carries the
        :math:`|A|!\\,|B|!` orders that correct ``A ≺ j ≺ B``.
        """
        k, d = self.torus.k, self.torus.d
        steps = np.arange(k // 2)
        delta = np.stack(
            [minimal_correction_array(0, disp[:, i], k)[0] for i in range(d)],
            axis=1,
        )
        differs = delta != 0
        factorial = np.array([math.factorial(i) for i in range(d + 1)])
        hops, counts = [], []
        for j in range(d):
            others = [i for i in range(d) if i != j]
            active = differs[:, j, None] & (steps < np.abs(delta[:, j])[:, None])
            segment = np.mod(np.sign(delta[:, j])[:, None] * steps, k)
            dim_sign = (2 * j + (delta[:, j] < 0))[:, None]
            for mask in range(1 << (d - 1)):
                before = [i for b, i in enumerate(others) if mask >> b & 1]
                after = [i for i in others if i not in before]
                valid = active & differs[:, before].all(axis=1)[:, None]
                base = disp[:, before] @ self.ext_strides[before]
                tail = base[:, None] + segment * self.ext_strides[j]
                hops.append(
                    np.where(valid, tail * self.slots + dim_sign, self.pad)
                )
                count = factorial[len(before)] * factorial[
                    differs[:, after].sum(axis=1)
                ]
                counts.append(np.where(valid, count[:, None], 0))
        paths = factorial[differs.sum(axis=1)]
        return np.concatenate(hops, axis=1), np.concatenate(counts, axis=1), paths

    def _enumerated_rows(self, disp: np.ndarray):
        """Each displacement's paths from ``routing.paths``, per hop."""
        torus = self.torus
        origin = (0,) * torus.d
        rows = []
        for delta in disp:
            target = tuple(int(x) for x in delta)
            paths = self.routing.paths(torus, origin, target)
            if not paths:
                raise LoadError(
                    f"routing {self.routing.name!r} returned no path for the "
                    f"canonical pair {origin} -> {target}; cannot build "
                    "its path-table row"
                )
            eids = np.array(
                [e for path in paths for e in path.edge_ids], dtype=np.int64
            )
            tails, dim_sign = np.divmod(eids, 2 * torus.d)
            hop = self.node_ext[tails] * self.slots + dim_sign
            rows.append(np.unique(hop, return_counts=True) + (len(paths),))
        width = max(hop.size for hop, _, _ in rows)
        hops = np.full((len(rows), width), self.pad, dtype=np.int64)
        counts = np.zeros((len(rows), width), dtype=np.int64)
        for i, (hop, count, _) in enumerate(rows):
            hops[i, : hop.size] = hop
            counts[i, : hop.size] = count
        paths = np.array([n for _, _, n in rows], dtype=np.int64)
        return hops, counts, paths

    # -------------------------------------------------------- consumers

    def edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Edge ids of the paths ``src → dst``.

        ``src`` and ``dst`` are broadcastable arrays of extended node ids
        (:meth:`ext`, :attr:`node_ext`); the result has one more axis of
        :attr:`width` hop slots, padding (and every slot of a
        ``src == dst`` pair) set to :attr:`sink`.
        """
        codes = self.codes(src, dst)
        return self.wrap[self.hops[codes] + (src * self.slots)[..., None]]

    def edge_counts(self, edges: np.ndarray) -> np.ndarray:
        """Per-row edge traversal counts of ``(..., pairs, hops)`` edge ids.

        One ``np.bincount`` over a flat ``(rows, num_edges + 1)`` index —
        the extra column absorbs the padding — returns an int64 array of
        shape ``(..., num_edges)``.
        """
        batch = edges.shape[:-2]
        rows = int(np.prod(batch, dtype=np.int64))
        width = self.sink + 1
        flat = edges.reshape(rows, -1) + (np.arange(rows) * width)[:, None]
        counts = np.bincount(flat.ravel(), minlength=rows * width)
        return counts.reshape(batch + (width,))[..., : self.sink]

    def takes_rings(self, m: int) -> bool:
        """Whether complete exchange of ``m`` processors goes ring by ring.

        It does (:mod:`repro.load.rings`) when the pair apply's
        ``m(m-1)·width`` hop slots cost more than the rings'
        (:func:`~repro.load.rings.ring_cost`, in the same slots), the
        radius is at most :data:`~repro.load.rings.RING_MAX_RADIUS` and
        the ring sums stay exact (``m^2·d! < 2^53``).  A closed-form row
        holds ``k // 2`` hop slots per ring term, so ``width`` is the
        term count times ``k // 2``.  Enumerated tables never do, so the
        ``displacement`` backend stays an independent check on both
        closed forms.
        """
        k, d = self.torus.k, self.torus.d
        if (
            self.enumerated
            or k > RING_MAX_RADIUS
            or m * m * math.factorial(d) >= 1 << 53
        ):
            return False
        udr = isinstance(self.routing, UnorderedDimensionalRouting)
        width = ring_terms(d, udr) * (k // 2)
        return m * (m - 1) * width > ring_cost(k, d, udr)

    def loads(
        self, placement: Placement, pair_weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact Definition-4 loads of every ordered pair of ``placement``.

        ``pair_weights`` is an optional ``(|P|, |P|)`` traffic matrix
        (default: complete exchange).  Complete exchange on a large
        enough placement (:meth:`takes_rings`) is counted ring by ring
        from per-ring sender and receiver counts
        (:mod:`repro.load.rings`), with no pass over its pairs.  Every
        other call applies the pairs, skipping those of weight zero, in
        chunks of about ``2^16`` hop slots: a gather of their rows, one
        add, one gather through the wrap table and one ``np.bincount``.
        Complete-exchange loads of a weighted table are snapped to the
        routing's load quantum when it is known
        (:func:`~repro.load.quantize.routing_load_quantum`), so UDR loads
        sit exactly on the :math:`1/d!` lattice, as the ring sums' do.
        Traced, the path that ran bumps
        ``engine.table.rings`` or ``engine.table.pairs``.
        """
        m = len(placement)
        pair_weights = validate_pair_weights(pair_weights, m)
        rings = pair_weights is None and self.takes_rings(m)
        tracer = current_tracer()
        if tracer.enabled:
            if rings:
                tracer.metrics.counter("engine.table.rings").add(1)
            else:
                tracer.metrics.counter("engine.table.pairs").add(1)
        if rings:
            coords = self._coords[placement.node_ids]
            if isinstance(self.routing, UnorderedDimensionalRouting):
                return udr_ring_loads(coords, self.torus.shape)
            return dimension_order_ring_loads(
                coords, self.torus.shape, self.routing.order
            )
        pi, qi = ordered_pair_index_arrays(m)
        scale = None
        if pair_weights is not None:
            scale = pair_weights[pi, qi]
            keep = scale != 0.0
            pi, qi, scale = pi[keep], qi[keep], scale[keep]
        ext = self.node_ext[placement.node_ids]
        src = ext[pi]
        codes = self.codes(src, ext[qi])
        total = np.zeros(self.sink + 1)
        step = max(1, _CHUNK_SLOTS // max(1, self.width))
        for lo in range(0, codes.size, step):
            chunk = slice(lo, lo + step)
            rows = codes[chunk]
            edges = self.wrap[self.hops[rows] + (src[chunk] * self.slots)[:, None]]
            weights = None
            if self.weights is not None:
                weights = self.weights[rows]
                if scale is not None:
                    weights *= scale[chunk, None]
            elif scale is not None:
                weights = np.repeat(scale[chunk], self.width)
            total += np.bincount(
                edges.ravel(),
                weights=None if weights is None else weights.ravel(),
                minlength=total.size,
            )
        loads = total[: self.sink]
        if pair_weights is None and self.weights is not None:
            quantum = routing_load_quantum(self.routing, self.torus.d)
            if quantum is not None:
                return snap_loads(loads, quantum)
        return loads
