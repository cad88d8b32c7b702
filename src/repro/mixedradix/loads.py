"""Exact vectorized ODR loads on mixed-radix tori.

Every ordered pair walks its ODR path one dimension at a time, all pairs
advancing together by one hop per step, with the per-dimension radix
taken from the torus shape; the square tori's loads come from the path
table instead (:mod:`repro.load.odr_loads`).  Conservation (total load
= total Lee distance over ordered pairs) holds identically and is
property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.mixedradix.placements import MixedPlacement

__all__ = ["mixed_odr_edge_loads"]


def mixed_odr_edge_loads(placement: MixedPlacement) -> np.ndarray:
    """Per-edge loads under restricted ODR and complete exchange.

    Returns a dense ``float64[2d·Πk_i]`` array with the usual edge-id
    layout ``node·2d + 2·dim + sign_bit``.
    """
    torus = placement.torus
    d = torus.d
    coords = placement.coords()
    m = coords.shape[0]
    idx = np.arange(m)
    pi, qi = np.meshgrid(idx, idx, indexing="ij")
    keep = pi != qi
    p = coords[pi[keep]]
    q = coords[qi[keep]]

    strides = torus.strides
    loads = np.zeros(torus.num_edges, dtype=np.float64)
    base = p @ strides
    two_d = 2 * d
    for dim in range(d):
        k = torus.shape[dim]
        fwd = np.mod(q[:, dim] - p[:, dim], k)
        bwd = np.mod(p[:, dim] - q[:, dim], k)
        delta = np.where(fwd <= bwd, fwd, -bwd)
        hops = np.abs(delta)
        sign = np.sign(delta)
        sign_bit = (sign < 0).astype(np.int64)
        max_hops = int(hops.max(initial=0))
        x = p[:, dim].copy()
        base_wo_dim = base - p[:, dim] * strides[dim]
        for step in range(max_hops):
            active = hops > step
            if not np.any(active):
                break
            node_ids = base_wo_dim[active] + x[active] * strides[dim]
            edge_ids = node_ids * two_d + 2 * dim + sign_bit[active]
            np.add.at(loads, edge_ids, 1.0)
            x[active] = np.mod(x[active] + sign[active], k)
        base = base_wo_dim + q[:, dim] * strides[dim]
    return loads
