"""Per-dimension view of a load vector.

EXP-7's key finding — the paper's Section 6.1 closed forms describe
*interior*-dimension edges while the global maximum sits on the boundary
dimensions — came from exactly this decomposition; EXP-9 uses it to show
that UDR has no such boundary effect.
"""

from __future__ import annotations

import numpy as np

from repro.torus.topology import Torus

__all__ = ["per_dimension_max"]


def per_dimension_max(torus: Torus, loads: np.ndarray) -> np.ndarray:
    """Maximum load over the edges of each dimension, shape ``(d,)``."""
    ids = np.arange(torus.num_edges, dtype=np.int64)
    _tails, dims, _signs = torus.edges.decode_arrays(ids)
    return np.array(
        [float(loads[dims == s].max(initial=0.0)) for s in range(torus.d)],
        dtype=np.float64,
    )
