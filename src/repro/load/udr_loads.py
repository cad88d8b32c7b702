"""Exact and sampled edge loads for Unordered Dimensional Routing.

A UDR path corrects dimensions in some order; for a pair differing in the
dimension set ``D`` (``|D| = s``) there are :math:`s!` equally likely
paths.  Definition 4's fractional load of an edge
``l = (v, v±e_j)`` with ``j ∈ D`` under that pair is

.. math::

    \\frac{|C_{p→l→q}|}{|C_{p→q}|} = \\frac{|A|!\\,|B|!}{s!}

where ``A = {i ∈ D∖j : v_i = q_i}`` must be the dimensions corrected
*before* ``j`` and ``B = {i ∈ D∖j : v_i = p_i}`` the ones corrected
*after*; the formula is the fraction of permutations ordering ``A ≺ j ≺ B``.
(Non-differing dimensions must satisfy ``v_i = p_i = q_i``; ``v_j`` must
lie on the minimal directed segment from ``p_j`` towards ``q_j``.)

:func:`udr_edge_loads` evaluates this *exactly*, vectorized over all pairs
(through the pair-level kernel :func:`accumulate_udr_pair_loads`): the outer
loops run over edge-dimension ``j``, the subset-of-corrected-dims
bitmask, and the segment position — :math:`O(d·2^{d-1}·\\lceil k/2\\rceil)`
numpy passes — so no per-pair Python work.  For every pair the weights over
all its edges sum to its Lee distance, giving the conservation law the
property tests check.

:func:`udr_sampled_edge_loads` is the Monte-Carlo estimator (one random
permutation per message), matching what the packet simulator does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.placements.base import Placement
from repro.util.itertools_ext import ordered_pair_index_arrays
from repro.util.modular import minimal_correction_array
from repro.util.rng import resolve_rng

__all__ = [
    "udr_edge_loads",
    "accumulate_udr_pair_loads",
    "udr_sampled_edge_loads",
]


def _pair_arrays(placement: Placement):
    """All ordered distinct pairs of placement coordinates.

    Pair order matches the historical masked-meshgrid construction
    bit-for-bit, but the index arithmetic never materializes the two
    ``m×m`` scratch matrices that construction allocated.
    """
    coords = placement.coords()
    pi, qi = ordered_pair_index_arrays(coords.shape[0])
    return coords[pi], coords[qi]


def udr_edge_loads(placement: Placement) -> np.ndarray:
    """Exact per-edge UDR loads under complete exchange.

    Returns
    -------
    numpy.ndarray
        ``float64`` loads for all ``2d·k^d`` directed edges; fractional
        because pairs spread their unit of traffic over :math:`s!` paths.
    """
    torus = placement.torus
    p, q = _pair_arrays(placement)  # (n_pairs, d) each
    loads = np.zeros(torus.num_edges, dtype=np.float64)
    accumulate_udr_pair_loads(loads, torus.k, torus.d, p, q)
    return loads


def accumulate_udr_pair_loads(
    loads: np.ndarray,
    k: int,
    d: int,
    p: np.ndarray,
    q: np.ndarray,
) -> None:
    """Add the exact UDR loads of explicit pairs into ``loads``.

    The pair-level kernel behind :func:`udr_edge_loads`, the UDR
    counterpart of :func:`repro.load.odr_loads.accumulate_pair_loads`:
    ``p`` and ``q`` are ``(n_pairs, d)`` source/destination coordinates
    and ``loads`` the dense ``2d·k^d`` accumulator, modified in place.
    Every pair adds its Definition-4 fractions ``|A|!|B|!/s!``; pairs with
    ``p == q`` add nothing.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.int64))
    q = np.atleast_2d(np.asarray(q, dtype=np.int64))
    n_pairs = p.shape[0]

    delta = np.empty((n_pairs, d), dtype=np.int64)
    for dim in range(d):
        delta[:, dim], _ = minimal_correction_array(p[:, dim], q[:, dim], k)
    hops = np.abs(delta)
    sign = np.sign(delta)
    differs = delta != 0  # (n_pairs, d)
    s_tot = differs.sum(axis=1)  # |D| per pair

    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    factorial = np.array([math.factorial(i) for i in range(d + 1)], dtype=np.float64)
    two_d = 2 * d

    p_base = p @ strides  # node id of p

    for j in range(d):  # dimension of the edge being loaded
        other_dims = [i for i in range(d) if i != j]
        sign_bit_j = (sign[:, j] < 0).astype(np.int64)
        seg_len = hops[:, j]
        max_len = int(seg_len.max(initial=0))
        if max_len == 0:
            continue
        # precompute per-dimension id shift for "corrected" dims
        shift = (q - p) * strides  # (n_pairs, d): (q_i - p_i)*stride_i
        for mask in range(1 << (d - 1)):
            # mask bit b set  ⇒  other_dims[b] is already corrected (v_i = q_i)
            corrected = [other_dims[b] for b in range(d - 1) if mask >> b & 1]
            uncorrected = [i for i in other_dims if i not in corrected]
            # validity: every corrected dim must actually differ (else the
            # same v would be double-counted by the mask without that bit)
            valid = differs[:, j].copy()
            a_count = np.zeros(n_pairs, dtype=np.int64)
            for i in corrected:
                valid &= differs[:, i]
                a_count += 1
            b_count = np.zeros(n_pairs, dtype=np.int64)
            for i in uncorrected:
                b_count += differs[:, i].astype(np.int64)
            if not np.any(valid):
                continue
            # weight = |A|! |B|! / s!
            weight = np.zeros(n_pairs, dtype=np.float64)
            weight[valid] = (
                factorial[a_count[valid]]
                * factorial[b_count[valid]]
                / factorial[s_tot[valid]]
            )
            # walker base id: q on corrected dims, p elsewhere, dim j varying
            base = p_base.astype(np.int64).copy()
            for i in corrected:
                base += shift[:, i]
            base_wo_j = base - p[:, j] * strides[j]
            x = p[:, j].copy()
            for step in range(max_len):
                active = valid & (seg_len > step)
                if not np.any(active):
                    break
                node_ids = base_wo_j[active] + x[active] * strides[j]
                edge_ids = node_ids * two_d + 2 * j + sign_bit_j[active]
                np.add.at(loads, edge_ids, weight[active])
                x = np.mod(x + sign[:, j], k)  # advance all; masked on use


def udr_sampled_edge_loads(
    placement: Placement,
    messages_per_pair: int = 1,
    seed=None,
) -> np.ndarray:
    """Monte-Carlo UDR loads: each message samples one random dimension order.

    With ``messages_per_pair = n`` the result divided by ``n`` is an
    unbiased estimator of :func:`udr_edge_loads`; the packet simulator's
    link counters follow the same law.
    """
    if messages_per_pair < 1:
        raise ValueError(
            f"messages_per_pair must be >= 1, got {messages_per_pair}"
        )
    rng = resolve_rng(seed)
    torus = placement.torus
    k, d = torus.k, torus.d
    coords = placement.coords()
    m = coords.shape[0]
    strides = np.array([k ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    loads = np.zeros(torus.num_edges, dtype=np.float64)
    two_d = 2 * d

    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            p, q = coords[i], coords[j]
            delta, _ = minimal_correction_array(p, q, k)
            diff = np.nonzero(delta)[0]
            for _ in range(messages_per_pair):
                order = rng.permutation(diff)
                cur = p.copy()
                node = int(cur @ strides)
                for dim in order:
                    step = 1 if delta[dim] > 0 else -1
                    sign_bit = 0 if step > 0 else 1
                    for _hop in range(abs(int(delta[dim]))):
                        loads[node * two_d + 2 * dim + sign_bit] += 1.0
                        cur[dim] = (cur[dim] + step) % k
                        node = int(cur @ strides)
    return loads
