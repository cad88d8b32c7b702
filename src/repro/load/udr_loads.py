"""Exact edge loads for Unordered Dimensional Routing.

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
slots).  A small placement is one row gather and one weighted
``np.bincount`` per chunk of pairs.  A large one is counted ring by ring
(:mod:`repro.load.rings`): the fractions make UDR the uniform mixture
of all :math:`d!` dimension orders, so its loads are the dimension-order
ring counts of every split ``A ≺ j ≺ B``, weighted :math:`|A|!\\,|B|!`
and divided by :math:`d!`.  For every pair the weights over all its
edges sum to its Lee distance, giving the conservation law the property
tests check.
"""

from __future__ import annotations

import numpy as np

from repro.load.plancache import current_plan_cache
from repro.placements.base import Placement
from repro.routing.udr import UnorderedDimensionalRouting

__all__ = ["udr_edge_loads"]


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
