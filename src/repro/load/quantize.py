"""The rounding contract for exact load values.

Definition 4 makes every complete-exchange load a *rational* number: each
ordered pair spreads one unit of traffic uniformly over its path set
:math:`C^A_{p→q}`, so each edge receives an integer multiple of
:math:`1/|C^A_{p→q}|` from that pair.  Summing over pairs, every load is
a multiple of ``1/Q`` where ``Q`` is the least common multiple of the
path-set sizes in play:

* dimension-order routings (the paper's ODR included) are deterministic —
  ``|C^A| = 1`` and loads are **integers**;
* UDR has ``|C^A| = s!`` for a pair differing in ``s ≤ d`` dimensions —
  loads are multiples of :math:`1/d!`;
* path-multiplicity routings (all-minimal-paths, unrestricted ODR) have
  instance-dependent path counts; the quantum exists but must be derived
  from the displacement classes actually present.

Float summation lands within rounding noise of that grid, so
:func:`snap_loads` — rounding to the nearest multiple of ``1/Q`` —
recovers the exact rational value: the path table's pair apply snaps its
UDR loads onto the :math:`1/d!` lattice with it, and bit-identity checks
canonicalize both sides with it.

Integer-weighted traffic preserves the contract (integer multiples of the
same quanta); arbitrary real-valued traffic matrices void it, and
backends fall back to plain float comparison against the 1e-9 agreement
bound documented in :mod:`repro.load.engine.base`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.udr import UnorderedDimensionalRouting

__all__ = ["routing_load_quantum", "snap_loads"]


def routing_load_quantum(routing: RoutingAlgorithm, d: int) -> int | None:
    """The a-priori load denominator ``Q`` for complete exchange, if known.

    Returns ``1`` for deterministic dimension-order routings (integer
    loads), ``d!`` for UDR, and ``None`` when the routing's path counts
    are instance-dependent (the quantum then has to be derived from the
    displacement classes actually present).
    """
    if isinstance(routing, DimensionOrderRouting):
        return 1
    if isinstance(routing, UnorderedDimensionalRouting):
        return math.factorial(d)
    return None


def snap_loads(loads: np.ndarray, denominator: int) -> np.ndarray:
    """Round loads to the nearest multiple of ``1/denominator``.

    This is the canonicalization both sides of a bit-identity check go
    through: two float load vectors represent the same exact rational
    loads iff their snapped forms are equal element-wise.
    """
    if denominator < 1:
        raise ValueError(f"denominator must be >= 1, got {denominator}")
    loads = np.asarray(loads, dtype=np.float64)
    if denominator == 1:
        return np.rint(loads)
    return np.rint(loads * denominator) / denominator
