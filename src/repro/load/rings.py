"""Complete-exchange loads ring by ring, from per-ring marginals.

Under a dimension-order routing the segment of a pair ``p → q`` in
dimension ``j`` runs along the ring through the coordinates of ``q`` on
the dimensions ``A`` corrected before ``j`` and those of ``p`` on the
dimensions ``B`` corrected after it, from ``p_j`` to ``q_j`` by the
minimal correction (``+`` on half-ring ties).  The pairs crossing a
dimension-``j`` edge are therefore counted by two marginals of the
placement, the count behind Theorem 2 and its Sec. 6.1 refinement: the
senders and receivers of each ring,

.. math::

    U[a, β] = \\#\\{p ∈ P : p_j = a,\\ p_B = β\\}, \\qquad
    V[α, b] = \\#\\{q ∈ P : q_A = α,\\ q_j = b\\},

and the load of the ``±`` edge at tail ``x`` of ring ``(α, β)`` is

.. math::

    \\sum_{a, b} V[α, b]\\, \\mathrm{cover}_±(x; a, b)\\, U[a, β],

where :math:`\\mathrm{cover}_±(x; a, b)` says the minimal segment
``a → b`` crosses that edge.  For every ring and edge at once this is two
matrix products through the ``(k, 2, k, k)`` cover table of a ring of
``k`` nodes, contracting the smaller marginal first:
:math:`O(k^{d+1})` per *term* ``(j, A, B)``, however large ``P`` is.

A dimension order has one term per dimension.  UDR (Theorem 4) spreads
each pair uniformly over the orders of its differing dimensions, which is
the uniform mixture of all :math:`d!` dimension orders: the term
``(j, A, B)`` appears in :math:`|A|!\\,|B|!` of them, so UDR's loads are
its :math:`d \\cdot 2^{d-1}` terms weighted that way and divided by
:math:`d!` once.

Every product and sum is of non-negative integers below :math:`2^{53}`
when :math:`|P|^2 d! < 2^{53}`, so the float64 matrix products are exact
in any summation order: dimension-order loads are exact integers and UDR
loads exact numerators over :math:`d!`, bit for bit the snapped pair
apply of :class:`~repro.load.path_table.PathTable`.  The radii may
differ per dimension (:mod:`repro.mixedradix.loads`); the cover table of
a ring of ``k`` nodes takes :math:`16 k^3` bytes, cached per radius.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

__all__ = [
    "RING_MAX_RADIUS",
    "RING_PRODUCTS_PER_SLOT",
    "RING_TERM_SLOTS",
    "dimension_order_ring_loads",
    "ring_cost",
    "ring_terms",
    "udr_ring_loads",
]

#: the cost of a ring term in pair-apply hop slots, the unit of
#: :meth:`~repro.load.path_table.PathTable.takes_rings`: a fixed part,
#: mostly NumPy call overhead, plus one slot per
#: :data:`RING_PRODUCTS_PER_SLOT` of its ``k^{d+1}`` products.  Fitted
#: to warm random placements on a 2-core x86-64 container, where the
#: pair apply costs 5-10 ns per hop slot: a term took 11-21 µs on
#: T_4³-T_8³ and T_3⁴-T_5⁴, 21-28 µs on T_8²-T_16², 42 µs on T_12³,
#: 63 µs on T_32² and 220 µs on T_64².  The fit is within about 1.5x
#: everywhere, and pairs and rings cost about the same near the
#: crossover.  Pairs → rings at ``|P| = k^{d-1}``, ODR: T_16² stays on
#: pairs (0.039 ms against 0.032), T_32² 0.17 → 0.08, T_8³ 0.29 → 0.06,
#: T_12³ 2.1 → 0.12; UDR: T_32² 0.78 → 0.16, T_8³ 1.8 → 0.20, T_12³
#: 9.4 → 0.49, T_6⁴ 28 → 0.95.
RING_TERM_SLOTS = 2500
RING_PRODUCTS_PER_SLOT = 6

#: largest ring radius the path table hands to the rings: a radius-``k``
#: cover table is ``16 k^3`` bytes (4 MiB at 64).
RING_MAX_RADIUS = 64


def ring_terms(d: int, udr: bool) -> int:
    """Terms ``(j, A, B)`` of a dimension order (``d``) or of UDR (``d·2^{d-1}``)."""
    return d << (d - 1) if udr else d


def ring_cost(k: int, d: int, udr: bool) -> int:
    """Estimated cost of the ring sums on :math:`T_k^d`, in hop slots."""
    return ring_terms(d, udr) * (
        RING_TERM_SLOTS + k ** (d + 1) // RING_PRODUCTS_PER_SLOT
    )


@functools.lru_cache(maxsize=16)
def _cover_table(k: int) -> np.ndarray:
    """``cover[b, s, x, a]`` of a ring of ``k`` nodes, float64.

    1 where the minimal correction ``a → b`` runs in direction ``s``
    (0 for ``+``, ties included; 1 for ``-``) and crosses the
    direction-``s`` edge whose tail is ``x``: a ``+`` segment crosses the
    tails ``a, …, b - 1`` and a ``-`` segment the tails ``b + 1, …, a``.
    """
    a = np.arange(k)
    x = a[:, None, None]
    a, b = a[None, :, None], a[None, None, :]
    fwd = np.mod(b - a, k)
    bwd = np.mod(a - b, k)
    plus = (fwd <= bwd) & (fwd != 0) & (np.mod(x - a, k) < fwd)
    minus = (fwd > bwd) & (np.mod(a - x, k) < bwd)
    # (s, x, a, b) -> (b, s, x, a): both contraction orders are reshapes
    cover = np.stack([plus, minus]).transpose(3, 0, 1, 2)
    cover = np.ascontiguousarray(cover, dtype=np.float64)
    cover.flags.writeable = False  # cached: shared by every caller
    return cover


def _strides(radii: tuple[int, ...]) -> list[int]:
    """C-order strides of ``radii``."""
    return [math.prod(radii[i + 1 :]) for i in range(len(radii))]


@functools.lru_cache(maxsize=64)
def _plan(shape: tuple[int, ...], terms: tuple) -> tuple:
    """Bins and layouts of the ``terms`` on a torus of radii ``shape``.

    Each term ``(j, before, after, weight)`` owns a sender block
    ``U[a, β]`` (``k × K_B``) and a receiver block ``V[α, b]``
    (``K_A × k``) of one flat count vector: ``coords @ index + offsets``
    are every processor's bins, and ``scale`` (``None`` when every weight
    is 1) weights each receiver block by its term's weight.
    """
    d = len(shape)
    index = np.zeros((d, 2 * len(terms)), dtype=np.int64)
    offsets, scale, layouts = [], [], []
    total = 0
    for t, (j, before, after, weight) in enumerate(terms):
        k = shape[j]
        radii_a = tuple(shape[i] for i in before)
        radii_b = tuple(shape[i] for i in after)
        size_a, size_b = math.prod(radii_a), math.prod(radii_b)
        index[j, 2 * t] = size_b
        index[list(after), 2 * t] = _strides(radii_b)
        index[j, 2 * t + 1] = 1
        index[list(before), 2 * t + 1] = [s * k for s in _strides(radii_a)]
        senders = slice(total, total + k * size_b)
        receivers = slice(senders.stop, senders.stop + size_a * k)
        offsets += [senders.start, receivers.start]
        scale += [np.ones(k * size_b), np.full(size_a * k, float(weight))]
        # a term's loads come out as (*A, sign, j, *B)
        axes = [*before, -1, j, *after]
        layouts.append(
            (
                j,
                senders,
                receivers,
                (k, size_a, size_b),
                (*radii_a, 2, k, *radii_b),
                [axes.index(i) for i in range(d)] + [axes.index(-1)],
            )
        )
        total = receivers.stop
    offsets = np.array(offsets, dtype=np.int64)
    scale = np.concatenate(scale) if any(t[3] != 1 for t in terms) else None
    for array in (index, offsets, scale):
        if array is not None:
            array.flags.writeable = False  # cached: shared by every caller
    return index, offsets, scale, total, tuple(layouts)


def _ring_loads(
    coords: np.ndarray, shape: tuple[int, ...], terms: tuple
) -> np.ndarray:
    """Weighted sum of the ``terms`` ``(j, before, after, weight)``."""
    d = len(shape)
    index, offsets, scale, total, layouts = _plan(shape, terms)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, d)
    counts = np.bincount((coords @ index + offsets).ravel(), minlength=total)
    counts = counts * scale if scale is not None else counts.astype(np.float64)
    loads = np.zeros((*shape, d, 2))
    for j, senders, receivers, (k, size_a, size_b), grid, axes in layouts:
        u = counts[senders].reshape(k, size_b)
        v = counts[receivers].reshape(size_a, k)
        cover = _cover_table(k)
        if size_a <= size_b:
            term = (v @ cover.reshape(k, -1)).reshape(-1, k) @ u
        else:
            term = v @ (cover.reshape(-1, k) @ u).reshape(k, -1)
        loads[..., j, :] += term.reshape(grid).transpose(axes)
    return loads.reshape(-1)


def dimension_order_ring_loads(
    coords: np.ndarray, shape: Sequence[int], order: Sequence[int]
) -> np.ndarray:
    """Exact complete-exchange loads under the dimension order ``order``.

    ``coords`` holds the ``(|P|, d)`` processor coordinates on the torus
    of radii ``shape``; the result is ``float64[2d·Πk_i]`` in the edge-id
    layout ``node·2d + 2·dim + sign_bit``.
    """
    order = tuple(int(i) for i in order)
    terms = tuple(
        (j, order[:t], order[t + 1 :], 1) for t, j in enumerate(order)
    )
    return _ring_loads(coords, tuple(shape), terms)


def udr_ring_loads(coords: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Exact complete-exchange loads under UDR, the :math:`d!`-order mixture.

    Same layout as :func:`dimension_order_ring_loads`.
    """
    shape = tuple(shape)
    d = len(shape)
    return _ring_loads(coords, shape, _udr_terms(d)) / math.factorial(d)


@functools.lru_cache(maxsize=8)
def _udr_terms(d: int) -> tuple:
    """Every split ``(j, A, B)``, weighted by its :math:`|A|!\\,|B|!` orders."""
    terms = []
    for j in range(d):
        others = [i for i in range(d) if i != j]
        for picks in itertools.product((False, True), repeat=d - 1):
            before = tuple(i for i, pick in zip(others, picks) if pick)
            after = tuple(i for i, pick in zip(others, picks) if not pick)
            weight = math.factorial(len(before)) * math.factorial(len(after))
            terms.append((j, before, after, weight))
    return tuple(terms)
