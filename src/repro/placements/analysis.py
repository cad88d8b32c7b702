"""Structural analysis of placements: uniformity.

The paper calls a placement *uniform* when each principal subtorus of
:math:`T_k^d` contains the same number of processors (Sec. 2).  Since there
are ``k`` principal subtori along each of the ``d`` dimensions, uniformity
means ``d`` flat histograms.  Linear placements with all coefficients
coprime to ``k`` put exactly :math:`k^{d-2}` processors in every principal
subtorus (Sec. 5).
"""

from __future__ import annotations

import numpy as np

from repro.placements.base import Placement
from repro.torus.subtorus import subtorus_layer_counts

__all__ = ["layer_counts", "is_uniform", "uniform_dimensions"]


def layer_counts(placement: Placement, dim: int) -> np.ndarray:
    """Processors per principal subtorus along ``dim`` (length-``k`` array)."""
    return subtorus_layer_counts(placement.torus, placement.node_ids, dim)


def uniform_dimensions(placement: Placement) -> list[int]:
    """The dimensions along which the placement is uniform."""
    return [
        dim
        for dim in range(placement.torus.d)
        if np.all(layer_counts(placement, dim) == layer_counts(placement, dim)[0])
    ]


def is_uniform(placement: Placement) -> bool:
    """Paper's uniformity: equal processors in *every* principal subtorus."""
    return len(uniform_dimensions(placement)) == placement.torus.d
