"""Exact ODR loads on mixed-radix tori, ring by ring.

The ring sums of :mod:`repro.load.rings` take one radius per dimension,
so a mixed-radix torus's complete-exchange loads under restricted ODR are
the dimension order ``0, 1, …, d-1`` counted from per-ring sender and
receiver marginals, as the square tori's are.  Conservation (total load
= total Lee distance over ordered pairs) holds identically and is
property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.load.rings import dimension_order_ring_loads
from repro.mixedradix.placements import MixedPlacement

__all__ = ["mixed_odr_edge_loads"]


def mixed_odr_edge_loads(placement: MixedPlacement) -> np.ndarray:
    """Per-edge loads under restricted ODR and complete exchange.

    Returns a dense ``float64[2d·Πk_i]`` array with the usual edge-id
    layout ``node·2d + 2·dim + sign_bit``.
    """
    torus = placement.torus
    return dimension_order_ring_loads(
        placement.coords(), torus.shape, range(torus.d)
    )
