"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of this package with a single ``except``
clause while still being able to discriminate the failure class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.exec.report import ExecutionReport

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "PlacementError",
    "RoutingError",
    "BisectionError",
    "LoadError",
    "EngineError",
    "SimulationError",
    "ExperimentError",
    "SearchError",
    "ExecutionError",
    "TraceError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidParameterError(ReproError, ValueError):
    """A torus/placement/routing parameter is out of its legal domain.

    Raised, for instance, for ``k < 2``, ``d < 1``, coefficient vectors of
    the wrong length, or multiple-linear multiplicity ``t`` outside
    ``1 <= t <= k``.
    """


class PlacementError(ReproError):
    """A placement is structurally invalid for the requested operation.

    Examples: a placement referencing nodes outside the torus, an empty
    placement handed to a load analysis, or a non-uniform placement passed
    to an algorithm that requires uniformity.
    """


class RoutingError(ReproError):
    """A routing request cannot be satisfied.

    Examples: asking for a route between nodes that are not both in the
    placement, or a fault-masked routing relation that has no surviving
    path between a pair.
    """


class BisectionError(ReproError):
    """A bisection procedure failed to produce a balanced split."""


class LoadError(ReproError):
    """A load computation cannot be carried out.

    Examples: a routing relation that yields *no* path for an ordered
    pair (so Definition 4's :math:`1/|C^A_{p→q}|` fraction is undefined),
    or a traffic matrix whose shape does not match the placement.
    """


class EngineError(LoadError):
    """A :mod:`repro.load.engine` backend was misused or misconfigured.

    Examples: requesting an unknown backend name, asking the
    ``vectorized`` backend for a routing without closed-form path rows,
    or building a per-displacement path table for a routing that is not
    translation-invariant.
    """


class SimulationError(ReproError):
    """The packet simulator was configured inconsistently or deadlocked."""


class ExperimentError(ReproError):
    """An experiment was configured with parameters it cannot honour."""


class SearchError(ReproError):
    """An exact placement search failed or detected an internal
    inconsistency.

    Examples: an ``initial_upper_bound`` seed below the true minimum (no
    placement survives the pruning), or an orbit-size accounting mismatch
    against :math:`C(k^d, n)` — the latter indicates a bug and is checked
    defensively after every symmetry-reduced sweep.

    ``reports`` holds the :class:`~repro.exec.report.ExecutionReport` of
    every fan-out that ran before the failure (empty when none did), so a
    caller can still show the faults a failed search absorbed.
    """

    reports: tuple[ExecutionReport, ...] = ()


class ExecutionError(ReproError):
    """The :mod:`repro.exec` resilience layer could not complete a workload.

    Examples: a task that exhausted its retry budget with serial fallback
    disabled, a checkpoint journal whose fingerprint does not match the
    workload being resumed, or an executor misconfiguration (negative
    retry budget, duplicate task ids).
    """


class TraceError(ReproError):
    """A :mod:`repro.obs` trace could not be written or read back.

    Examples: emitting to a closed sink, summarizing a file with no
    trace header, an unsupported format version, or a corrupt interior
    line (traces tolerate only the torn-*final*-line kill artifact,
    matching :class:`~repro.exec.journal.CheckpointJournal` semantics).
    """
