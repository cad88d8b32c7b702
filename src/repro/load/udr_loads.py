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

:func:`udr_edge_loads` evaluates this *exactly* through the UDR
:class:`~repro.load.path_table.PathTable`, whose closed-form rows hold
these fractions for the pairs ``0 → δ`` (one slot per edge dimension
``j``, subset ``A`` and segment step, :math:`d·2^{d-1}·\\lfloor k/2\\rfloor`
slots): a full evaluation is one row gather and one weighted
``np.bincount`` per chunk of pairs, no per-pair Python work.  For every
pair the weights over all its edges sum to its Lee distance, giving the
conservation law the property tests check.

:func:`udr_sampled_edge_loads` is the Monte-Carlo estimator (one random
permutation per message), matching what the packet simulator does.
"""

from __future__ import annotations

import numpy as np

from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.udr import UnorderedDimensionalRouting
from repro.util.modular import minimal_correction_array
from repro.util.rng import resolve_rng

__all__ = [
    "udr_edge_loads",
    "udr_sampled_edge_loads",
]


def udr_edge_loads(placement: Placement) -> np.ndarray:
    """Exact per-edge UDR loads under complete exchange.

    Returns
    -------
    numpy.ndarray
        ``float64`` loads for all ``2d·k^d`` directed edges; fractional
        because pairs spread their unit of traffic over :math:`s!` paths.
    """
    plan = current_plan_cache().get(placement.torus, UnorderedDimensionalRouting())
    return plan.table.loads(placement)


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
