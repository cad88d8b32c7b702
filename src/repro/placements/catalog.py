"""Exhaustive enumeration of placements — global optimality certificates.

EXP-19's local search suggests linear placements sit on the load floor;
this module *proves* it for small tori by brute force: enumerate every
``C(k^d, n)`` placement of ``n`` processors, compute each exact ODR
:math:`E_{max}`, and return the global minimum plus (a sample of) its
achievers.  On :math:`T_4^2` that is 1 820 placements, on :math:`T_6^2`
with six processors all 1 947 792 — turning "no counterexample found"
into "no counterexample exists".

Placements are scored in blocks through the ODR
:class:`~repro.load.path_table.PathTable` the exact search and the
local search also use: every ODR path is one row of that table, so a
block of placements costs one gather and one ``np.bincount``
(:func:`block_emax`, which also scores the exact search's screen).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import InvalidParameterError
from repro.load.odr_loads import odr_edge_loads
from repro.load.path_table import PathTable
from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.torus.topology import Torus
from repro.util.itertools_ext import ordered_pair_index_arrays

__all__ = [
    "CatalogResult",
    "block_emax",
    "global_minimum_emax",
]

#: refuse exhaustive enumeration beyond this many candidate placements.
MAX_CATALOG = 2_000_000

#: bytes of a block's largest int64 scratch array (its hop slots or its
#: ``(rows, num_edges + 1)`` count matrix).  Below glibc's initial
#: 128 KiB mmap threshold, every block reuses heap memory: above it, each
#: block maps and unmaps its arrays, thousands of page faults per scan,
#: unless an earlier import happened to raise the threshold.
_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class CatalogResult:
    """Outcome of an exhaustive placement sweep.

    Attributes
    ----------
    minimum_emax:
        The global minimum :math:`E_{max}` over all placements of the
        requested size.
    num_placements:
        How many placements were evaluated.
    num_optimal:
        How many achieve the minimum.
    example_optimal:
        One placement achieving it.
    emax_histogram:
        ``{emax_value: count}`` over all evaluated placements.
    """

    minimum_emax: float
    num_placements: int
    num_optimal: int
    example_optimal: Placement
    emax_histogram: dict[float, int]


def _evaluate_chunk(args) -> tuple[float, tuple[int, ...], int, dict[float, int]]:
    """Reference worker: evaluate a chunk of id-tuples one placement at a
    time; returns (min, argmin ids, count at min, emax histogram).  This
    is the per-placement brute-force oracle :func:`_scan` is
    cross-checked against; top-level so it pickles for multiprocessing."""
    k, d, chunk = args
    torus = Torus(k, d)
    best: float | None = None
    best_ids: tuple[int, ...] | None = None
    num_optimal = 0
    histogram: dict[float, int] = {}
    for ids in chunk:
        emax = float(
            odr_edge_loads(  # repro: noqa(RL008) - this IS the brute-force oracle
                Placement(torus, list(ids))
            ).max()
        )
        histogram[emax] = histogram.get(emax, 0) + 1
        if best is None or emax < best - 1e-12:
            best, best_ids, num_optimal = emax, ids, 1
        elif abs(emax - best) <= 1e-12:
            num_optimal += 1
            if ids < best_ids:  # type: ignore[operator]
                best_ids = ids
    return best, best_ids, num_optimal, histogram


def block_emax(
    table: PathTable, ids: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Exact ODR :math:`E_{max}` of each row of a ``(placements, size)`` block.

    ``table`` is the ODR path table of the placements' torus, ``ids``
    holds one placement's node ids per row and ``pairs`` is
    :func:`~repro.util.itertools_ext.ordered_pair_index_arrays` of
    ``size``, built once by a caller that scores many blocks.  The block
    costs one gather of extended node ids, one
    :meth:`~repro.load.path_table.PathTable.edges` call over every
    ordered pair of every placement, one
    :meth:`~repro.load.path_table.PathTable.edge_counts` scatter, and a
    row-wise ``max`` — exact integer loads, bit-identical to the oracle.
    """
    pi, qi = pairs
    placed = table.node_ext[ids]
    edges = table.edges(placed[:, pi], placed[:, qi])
    return table.edge_counts(edges).max(axis=1, initial=0)


def _scan(
    torus: Torus, size: int, combos: Iterator[tuple[int, ...]]
) -> tuple[float | None, tuple[int, ...] | None, int, dict[float, int]]:
    """Block scorer with the same contract as :func:`_evaluate_chunk`.

    ``combos`` is a lexicographic stream of ``size``-subsets of node ids,
    scored one block at a time by :func:`block_emax`; the integer
    :math:`E_{max}` values are tallied by one ``np.bincount`` per block.
    """
    routing = OrderedDimensionalRouting(torus.d)
    table = current_plan_cache().get(torus, routing).table
    pairs = ordered_pair_index_arrays(size)
    slots = max(pairs[0].size * table.width, table.sink + 1)
    block = max(1, _BLOCK_BYTES // (8 * slots))
    # a pair's path crosses an edge at most once, so E_max <= its pair count
    tally = np.zeros(pairs[0].size + 1, dtype=np.int64)
    best: int | None = None
    best_ids: tuple[int, ...] | None = None
    while True:
        ids = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, block)),
            dtype=np.int64,
        ).reshape(-1, size)
        if ids.shape[0] == 0:
            break
        emax = block_emax(table, ids, pairs)
        tally += np.bincount(emax, minlength=tally.size)
        row = int(np.argmin(emax))
        if best is None or emax[row] < best:
            # the stream is lexicographic, so the first achiever of a new
            # minimum is the lex-smallest one
            best = int(emax[row])
            best_ids = tuple(int(x) for x in ids[row])
    return (
        None if best is None else float(best),
        best_ids,
        0 if best is None else int(tally[best]),
        {float(v): int(c) for v, c in enumerate(tally.tolist()) if c},
    )


def global_minimum_emax(torus: Torus, size: int) -> CatalogResult:
    """Exhaustively find the minimum ODR :math:`E_{max}` over all placements.

    Every ``C(k^d, size)`` placement is scored serially by :func:`_scan`
    over the lazy lexicographic combination stream, so the witness is
    the lex-smallest optimal placement.

    Raises
    ------
    InvalidParameterError
        If the candidate count exceeds :data:`MAX_CATALOG` or ``size`` is
        outside ``[1, k^d]``.
    """
    count = math.comb(torus.num_nodes, size)
    if count > MAX_CATALOG:
        raise InvalidParameterError(
            f"C({torus.num_nodes}, {size}) = {count} placements exceeds the "
            f"exhaustive limit {MAX_CATALOG}"
        )
    if not 1 <= size <= torus.num_nodes:
        raise InvalidParameterError(
            f"size must satisfy 1 <= size <= {torus.num_nodes}, got {size}"
        )
    best, best_ids, num_optimal, histogram = _scan(
        torus, size, itertools.combinations(range(torus.num_nodes), size)
    )
    return CatalogResult(
        minimum_emax=float(best),
        num_placements=count,
        num_optimal=num_optimal,
        example_optimal=Placement(torus, list(best_ids), name="catalog-optimal"),
        emax_histogram=histogram,
    )
