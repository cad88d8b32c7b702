"""Coordinate ↔ dense node-id conversion for :math:`T_k^d`.

Node ids are the C-order (row-major) ravel of the coordinate tuple, i.e.
``id = a_1·k^{d-1} + a_2·k^{d-2} + … + a_d`` for coordinate
``(a_1, …, a_d)``.  Everything is vectorized: coordinates travel as
``(n, d)`` int64 arrays and ids as ``(n,)`` int64 arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.validation import check_torus_params

__all__ = [
    "coords_to_ids",
    "ids_to_coords",
    "all_coords",
    "normalize_coords",
]


def normalize_coords(coords, k: int, d: int) -> np.ndarray:
    """Coerce ``coords`` into an ``(n, d)`` int64 array of residues mod ``k``.

    Accepts a single coordinate tuple, a list of tuples, or any array-like
    of shape ``(d,)`` or ``(n, d)``.  Values are reduced modulo ``k``.
    """
    k, d = check_torus_params(k, d)
    arr = np.asarray(coords, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise InvalidParameterError(
            f"coordinates must have shape (n, {d}); got {arr.shape}"
        )
    return np.mod(arr, k)


def coords_to_ids(coords, k: int, d: int) -> np.ndarray:
    """Map coordinates to dense node ids (C-order ravel).

    Parameters
    ----------
    coords:
        Array-like of shape ``(n, d)`` (or a single ``(d,)`` tuple).
    k, d:
        Torus parameters.

    Returns
    -------
    numpy.ndarray
        ``(n,)`` int64 node ids in ``[0, k**d)``.
    """
    arr = normalize_coords(coords, k, d)
    return np.ravel_multi_index(tuple(arr.T), (k,) * d).astype(np.int64)


def ids_to_coords(ids, k: int, d: int) -> np.ndarray:
    """Map dense node ids back to ``(n, d)`` coordinate arrays."""
    k, d = check_torus_params(k, d)
    ids = np.asarray(ids, dtype=np.int64)
    scalar = ids.ndim == 0
    ids = np.atleast_1d(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= k**d):
        raise InvalidParameterError(
            f"node ids must lie in [0, {k**d}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )
    out = np.stack(np.unravel_index(ids, (k,) * d), axis=-1).astype(np.int64)
    return out[0] if scalar else out


def all_coords(k: int, d: int) -> np.ndarray:
    """All ``k**d`` coordinates of :math:`T_k^d` as a ``(k**d, d)`` array.

    Row ``i`` is the coordinate of node id ``i`` (C order), so
    ``coords_to_ids(all_coords(k, d), k, d) == arange(k**d)``.
    """
    k, d = check_torus_params(k, d)
    return ids_to_coords(np.arange(k**d, dtype=np.int64), k, d)
