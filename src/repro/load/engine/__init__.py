"""Unified load-computation engine with pluggable backends.

The paper's experiments all reduce to one primitive — per-edge loads of a
placement under a routing algorithm — evaluated at very different scales:
tiny oracle cross-checks, ``k``-sweeps of closed-form kernels, and bulk
:math:`|P|^2` pair accounting for the large tori the ROADMAP targets.
This subpackage gives that primitive one facade
(:class:`~repro.load.engine.facade.LoadEngine`) over four interchangeable
backends (``reference``, ``vectorized``, ``fft``, ``displacement``), all
verified to agree with the reference oracle to ``1e-9``.

The core machinery is the displacement-class path cache
(:mod:`repro.load.engine.displacement`): :math:`T_k^d` is
vertex-transitive, so for translation-invariant routings the path set of
a pair depends only on its displacement ``(q - p) mod k``, and one
canonical template per displacement class replaces per-pair path
enumeration.  The ``fft`` backend (:mod:`repro.load.engine.fft`) pushes
that symmetry to its limit for coset placements: their loads are one
correlation of the placement indicator with the aggregated path-usage
templates, evaluated for every edge at once by ``numpy.fft.rfftn`` with
an exact integer snap-back.
"""

from repro.load.engine.base import LoadBackend, validate_pair_weights
from repro.load.engine.displacement import (
    DisplacementBackend,
    DisplacementPathCache,
    PathTemplate,
    accumulate_displacement_loads,
    displacement_edge_loads,
)
from repro.load.engine.fft import (
    FFTBackend,
    fft_edge_loads,
    fft_edge_loads_many,
)
from repro.load.engine.facade import (
    LoadEngine,
    available_backends,
    cross_check,
    get_default_engine,
    resolve_engine,
    set_default_engine,
    using_engine,
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
    "DisplacementPathCache",
    "PathTemplate",
    "displacement_edge_loads",
    "fft_edge_loads",
    "fft_edge_loads_many",
    "accumulate_displacement_loads",
    "validate_pair_weights",
    "available_backends",
    "cross_check",
    "get_default_engine",
    "set_default_engine",
    "resolve_engine",
    "using_engine",
]
