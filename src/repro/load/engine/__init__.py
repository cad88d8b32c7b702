"""Unified load-computation engine with pluggable backends.

The paper's experiments all reduce to one primitive — per-edge loads of a
placement under a routing algorithm — evaluated at very different scales:
tiny oracle cross-checks, ``k``-sweeps of closed-form kernels, and bulk
:math:`|P|^2` pair accounting for the large tori the ROADMAP targets.
This subpackage gives that primitive one facade
(:class:`~repro.load.engine.facade.LoadEngine`) over four interchangeable
backends (``reference``, ``vectorized``, ``fft``, ``displacement``), all
verified to agree with the reference oracle to ``1e-9``.

The core machinery is one :class:`~repro.load.path_table.PathTable` per
configuration: :math:`T_k^d` is vertex-transitive, so for
translation-invariant routings the path set of a pair depends only on
its displacement ``(q - p) mod k``, and one row per displacement
replaces per-pair path enumeration.  ``vectorized`` reads the table's
closed-form rows, ``displacement`` rows enumerated by the routing.  The
``fft`` backend (:mod:`repro.load.engine.fft`) applies the same symmetry
to whole placements: the loads of a translate ``P + r`` are those of
``P`` moved by ``r``, so a placement with a nontrivial translation
stabilizer (found by an FFT autocorrelation) is served by shifting the
memoized exact loads of its translate through the origin.
"""

from repro.load.engine.base import LoadBackend
from repro.load.engine.displacement import DisplacementBackend
from repro.load.engine.fft import FFTBackend
from repro.load.engine.facade import (
    LoadEngine,
    available_backends,
    cross_check,
)
from repro.load.engine.reference import ReferenceBackend
from repro.load.engine.vectorized import VectorizedBackend

__all__ = [
    "LoadEngine",
    "LoadBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "FFTBackend",
    "DisplacementBackend",
    "available_backends",
    "cross_check",
]
