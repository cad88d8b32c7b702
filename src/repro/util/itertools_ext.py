"""Iteration helpers used across the package."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = [
    "chunked",
    "ordered_pair_index_arrays",
    "pairs_ordered",
    "pairs_unordered",
    "product_coords",
]


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


def chunked(seq: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive slices of ``seq`` of length ``size`` (last may be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def pairs_ordered(items: Iterable[T]) -> Iterator[tuple[T, T]]:
    """All ordered pairs ``(a, b)`` with ``a != b`` (the complete-exchange set)."""
    items = list(items)
    for a in items:
        for b in items:
            if a is not b and a != b:
                yield (a, b)


def pairs_unordered(items: Iterable[T]) -> Iterator[tuple[T, T]]:
    """All unordered pairs ``{a, b}`` with ``a != b``."""
    return itertools.combinations(list(items), 2)


def product_coords(k: int, d: int) -> Iterator[tuple[int, ...]]:
    """Iterate all ``k**d`` coordinate tuples of ``T_k^d`` in C order."""
    return itertools.product(range(k), repeat=d)
