"""The :class:`Torus` object — :math:`T_k^d` per Definition 1 of the paper.

A :class:`Torus` bundles the parameters ``(k, d)`` with the coordinate and
edge indexing machinery, and exposes the distance/neighbourhood queries the
rest of the package builds on.  It is immutable and cheap to construct (no
adjacency materialization; everything is computed from ids on demand).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.torus.coords import all_coords, coords_to_ids, ids_to_coords
from repro.torus.edges import EdgeIndex
from repro.util.modular import lee_distance, lee_distance_array
from repro.util.validation import check_torus_params

__all__ = ["Torus"]


class Torus:
    """The d-dimensional k-torus :math:`T_k^d` as a directed graph.

    Parameters
    ----------
    k:
        Ring size (radix) of every dimension, ``k >= 2``.
    d:
        Number of dimensions, ``d >= 1``.

    Examples
    --------
    >>> t = Torus(4, 2)
    >>> t.num_nodes, t.num_edges
    (16, 64)
    >>> t.lee_distance((0, 0), (3, 2))
    3
    """

    def __init__(self, k: int, d: int):
        self.k, self.d = check_torus_params(k, d)

    # --------------------------------------------------------------- sizes

    @property
    def shape(self) -> tuple[int, ...]:
        """The coordinate-space shape ``(k,) * d``."""
        return (self.k,) * self.d

    @property
    def num_nodes(self) -> int:
        """Total node count :math:`k^d`."""
        return self.k**self.d

    @property
    def num_edges(self) -> int:
        """Total directed edge (link) count :math:`2dk^d`."""
        return 2 * self.d * self.num_nodes

    @property
    def degree(self) -> int:
        """Out-degree (= in-degree) of every node, :math:`2d`."""
        return 2 * self.d

    @cached_property
    def edges(self) -> EdgeIndex:
        """The dense directed-edge index for this torus."""
        return EdgeIndex(self.k, self.d)

    # --------------------------------------------------------- coordinates

    def node_id(self, coord) -> int:
        """Dense id of the node at ``coord``."""
        return int(coords_to_ids(coord, self.k, self.d)[0])

    def node_ids(self, coords) -> np.ndarray:
        """Vectorized :meth:`node_id` for ``(n, d)`` coordinate arrays."""
        return coords_to_ids(coords, self.k, self.d)

    def coord(self, node_id: int) -> tuple[int, ...]:
        """Coordinate tuple of a node id."""
        return tuple(int(c) for c in ids_to_coords(node_id, self.k, self.d))

    def coords(self, node_ids) -> np.ndarray:
        """Vectorized :meth:`coord` — returns an ``(n, d)`` array."""
        return np.atleast_2d(ids_to_coords(node_ids, self.k, self.d))

    def all_node_coords(self) -> np.ndarray:
        """Coordinates of every node, row ``i`` being node id ``i``."""
        return all_coords(self.k, self.d)

    def contains_coord(self, coord) -> bool:
        """Whether ``coord`` is a valid (already-reduced) coordinate tuple."""
        arr = np.asarray(coord)
        return (
            arr.ndim == 1
            and arr.shape[0] == self.d
            and bool(np.all((0 <= arr) & (arr < self.k)))
        )

    # ------------------------------------------------------------ distance

    def lee_distance(self, p, q) -> int:
        """Shortest-path (Lee) distance between coordinates ``p`` and ``q``."""
        return int(lee_distance(tuple(p), tuple(q), self.k))

    def lee_distance_ids(self, u: int, v: int) -> int:
        """Lee distance between two node ids."""
        return self.lee_distance(self.coord(u), self.coord(v))

    def lee_distances_array(self, p_coords, q_coords) -> np.ndarray:
        """Vectorized Lee distance over ``(n, d)`` coordinate arrays."""
        return lee_distance_array(
            np.asarray(p_coords, dtype=np.int64),
            np.asarray(q_coords, dtype=np.int64),
            self.k,
        )

    @property
    def diameter(self) -> int:
        """Maximum Lee distance: :math:`d\\lfloor k/2 \\rfloor`."""
        return self.d * (self.k // 2)

    # ----------------------------------------------------------- neighbors

    def neighbors(self, node_id: int) -> list[int]:
        """All ``2d`` out-neighbours of a node, ordered by (dim, +/−).

        For ``k == 2`` the two neighbours in a dimension coincide as nodes
        (but remain distinct directed links); both are listed.
        """
        out = []
        for dim in range(self.d):
            out.append(self.edges.neighbor(node_id, dim, +1))
            out.append(self.edges.neighbor(node_id, dim, -1))
        return out

    # -------------------------------------------------------------- basics

    @property
    def is_even(self) -> bool:
        """Whether the radix ``k`` is even (many closed forms split on this)."""
        return self.k % 2 == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Torus) and other.k == self.k and other.d == self.d
        )

    def __hash__(self) -> int:
        return hash(("Torus", self.k, self.d))

    def __repr__(self) -> str:
        return f"Torus(k={self.k}, d={self.d})"
