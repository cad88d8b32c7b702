"""The ordered-pair index arrays that every complete-exchange consumer shares."""

from __future__ import annotations

import numpy as np

__all__ = ["ordered_pair_index_arrays"]


def ordered_pair_index_arrays(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(pi, qi)`` of all ordered distinct pairs of ``range(m)``.

    Row ``r`` is the ``r``-th pair in the row-major order ``(0,1), (0,2),
    …, (0,m-1), (1,0), (1,2), …`` — the same order a masked
    ``meshgrid(indexing="ij")`` produces, but built by direct index
    arithmetic in :math:`O(m(m-1))` memory instead of materializing (and
    then masking) two full ``m×m`` matrices.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    flat = np.arange(m * (m - 1), dtype=np.int64)
    pi = flat // (m - 1)
    qi = flat - pi * (m - 1)
    qi += qi >= pi
    return pi, qi
