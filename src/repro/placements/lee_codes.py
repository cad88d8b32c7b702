"""Perfect Lee-code resource placements (Bae & Bose, the paper's ref. [3]).

The *resource placement* line of work the paper situates itself against
asks a different question: place resources so that every node is within
Lee distance ``r`` of exactly one resource — a perfect dominating set
under Lee distance (a perfect Lee code).  For ``d = 2`` the classical
construction places a resource at every ``(i, j)`` with

.. math::

    i + (2r+1)\\,j \\equiv 0 \\pmod{2r^2 + 2r + 1}

which tiles :math:`\\mathbb{Z}_k^2` with radius-``r`` Lee spheres whenever
``k`` is a multiple of the sphere size :math:`2r^2 + 2r + 1`.

These placements let the experiments contrast the two design goals: Lee
codes optimize *coverage distance*, the paper's linear placements optimize
*communication load* — for ``r ≥ 1`` a Lee code is sparser than a linear
placement (:math:`k^2/(2r^2+2r+1)` vs :math:`k` nodes) yet its load under
complete exchange is still linear in its size when it happens to be
lattice-uniform.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.placements.base import Placement
from repro.torus.coords import all_coords, coords_to_ids
from repro.torus.topology import Torus

__all__ = [
    "perfect_lee_placement",
    "is_perfect_dominating",
    "covering_radius",
]


def perfect_lee_placement(torus: Torus, r: int) -> Placement:
    """The radius-``r`` perfect Lee-code placement on a 2-D torus.

    Raises
    ------
    InvalidParameterError
        If ``d != 2``, ``r < 1``, or ``k`` is not a multiple of the Lee
        sphere size ``2r^2 + 2r + 1`` (the perfect-tiling condition).
    """
    if torus.d != 2:
        raise InvalidParameterError(
            f"perfect Lee placements implemented for d=2 only; got d={torus.d}"
        )
    if r < 1:
        raise InvalidParameterError(f"radius must be >= 1, got {r}")
    m = 2 * r * r + 2 * r + 1
    if torus.k % m != 0:
        raise InvalidParameterError(
            f"perfect radius-{r} Lee code needs k divisible by {m}; got k={torus.k}"
        )
    coords = all_coords(torus.k, 2)
    member = np.mod(coords[:, 0] + (2 * r + 1) * coords[:, 1], m) == 0
    ids = coords_to_ids(coords[member], torus.k, 2)
    return Placement(torus, ids, name=f"lee-code(r={r})")


def is_perfect_dominating(placement: Placement, r: int) -> bool:
    """Whether every torus node is within Lee distance ``r`` of *exactly*
    one processor — the perfect-code property."""
    torus = placement.torus
    proc_coords = placement.coords()
    all_nodes = torus.all_node_coords()
    covered = np.zeros(torus.num_nodes, dtype=np.int64)
    for pc in proc_coords:
        dists = torus.lee_distances_array(
            all_nodes, np.broadcast_to(pc, all_nodes.shape)
        )
        covered += dists <= r
    return bool(np.all(covered == 1))


def covering_radius(placement: Placement) -> int:
    """Smallest ``r`` such that every node is within Lee distance ``r`` of
    some processor (the placement's worst-case access latency)."""
    torus = placement.torus
    proc_coords = placement.coords()
    all_nodes = torus.all_node_coords()
    best = np.full(torus.num_nodes, torus.diameter + 1, dtype=np.int64)
    for pc in proc_coords:
        dists = torus.lee_distances_array(
            all_nodes, np.broadcast_to(pc, all_nodes.shape)
        )
        np.minimum(best, dists, out=best)
    return int(best.max())
