"""Reference (oracle) load computation for arbitrary routing algorithms.

This walks every path of :math:`C^A_{p→q}` for every ordered pair and
accumulates the fractional Definition-4 contribution
:math:`1/|C^A_{p→q}|` onto every edge of every path.  It is exact for any
:class:`~repro.routing.base.RoutingAlgorithm` but quadratic in ``|P|`` with
a full path enumeration inside — use it for small instances and as the
cross-check for the vectorized implementations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LoadError
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["edge_loads_reference"]


def edge_loads_reference(
    placement: Placement,
    routing: RoutingAlgorithm,
    pair_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-edge loads under complete exchange (or weighted traffic).

    Parameters
    ----------
    placement:
        The processor placement ``P``.
    routing:
        Any routing algorithm; all its paths are enumerated per pair.
    pair_weights:
        Optional ``(|P|, |P|)`` message multiplicities ``w[i, j]`` from
        processor ``i`` to processor ``j`` (indices follow
        ``placement.node_ids`` order).  Default: 1 for every ordered pair
        with ``i != j`` — the complete-exchange scenario.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of length ``torus.num_edges``: the load
        :math:`\\mathcal{E}(l)` of every directed edge.

    Raises
    ------
    repro.errors.LoadError
        If the routing yields *no* path for a pair with nonzero weight
        (e.g. a fault-masked relation whose surviving path set is empty)
        — Definition 4's :math:`1/|C^A_{p→q}|` fraction is undefined
        there.
    """
    torus = placement.torus
    coords = placement.coords()
    m = len(placement)
    if pair_weights is not None:
        pair_weights = np.asarray(pair_weights, dtype=np.float64)
        if pair_weights.shape != (m, m):
            raise ValueError(
                f"pair_weights must have shape ({m}, {m}), got {pair_weights.shape}"
            )
    loads = np.zeros(torus.num_edges, dtype=np.float64)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            w = 1.0 if pair_weights is None else float(pair_weights[i, j])
            if w == 0.0:
                continue
            paths = routing.paths(torus, coords[i], coords[j])
            if not paths:
                raise LoadError(
                    f"routing {routing.name!r} returned no path for pair "
                    f"{tuple(int(c) for c in coords[i])} -> "
                    f"{tuple(int(c) for c in coords[j])}; the Definition-4 "
                    "load fraction is undefined for a disconnected pair"
                )
            frac = w / len(paths)
            for path in paths:
                for eid in path.edge_ids:
                    loads[eid] += frac
    # The oracle returns its raw float accumulation of the Definition-4
    # fractions.  The contract every backend keeps is agreement with this
    # oracle after `snap_loads` on both sides: UDR splits a pair over s!
    # paths, so float sums on either side can drift off the 1/d! lattice.
    return loads
