"""Full measurement of a placement/routing pair.

:func:`analyze` is the one-stop report: exact loads (dispatched to the
fastest available implementation for the routing algorithm), Definition 5's
:math:`E_{max}`, all the paper's lower bounds, the constructive bisections,
and the optimality ratio — how close the measured maximum sits to the best
lower bound (1.0 = provably optimal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bisection.dimension_cut import best_dimension_cut
from repro.bisection.hyperplane import hyperplane_bisection
from repro.load.bounds import BoundReport, best_known_lower_bound
from repro.load.engine import LoadEngine
from repro.load.report import LoadReport, load_report
from repro.placements.analysis import is_uniform
from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["PlacementAnalysis", "analyze", "compute_loads"]

_ENGINE = LoadEngine("auto")


def compute_loads(
    placement: Placement,
    routing: RoutingAlgorithm,
) -> np.ndarray:
    """Per-edge loads through the ``auto`` load engine.

    ``auto`` (see :class:`~repro.load.engine.LoadEngine`) sends
    complete-exchange placements with a nontrivial translation
    stabilizer (cosets, multiple linear placements) on
    translation-invariant routings to the ``fft`` backend, which moves
    the memoized loads of their translate through the origin; the other
    dimension-order and UDR calls go to ``vectorized``, other
    translation-invariant routings to ``displacement``, and everything
    else to the path-enumerating ``reference``.  Every backend returns
    the same loads after :func:`~repro.load.quantize.snap_loads`.
    """
    return _ENGINE.edge_loads(placement, routing)


@dataclass(frozen=True)
class PlacementAnalysis:
    """Everything :func:`analyze` measures.

    Attributes
    ----------
    load:
        The :class:`~repro.load.report.LoadReport` (contains
        :math:`E_{max}`).
    bounds:
        The paper's lower bounds evaluated on this placement; ``bounds.eq8``
        uses the best constructive bisection found below.
    uniform:
        Whether the placement is uniform (Sec. 2 definition).
    dimension_cut_width, dimension_cut_balanced:
        Width and balance of the best Theorem 1 two-cut bisection.
    hyperplane_cut_width, hyperplane_array_crossings:
        The Appendix sweep's directed torus cut and undirected array
        crossing count.
    optimality_ratio:
        :math:`E_{max} / \\text{best lower bound}` — 1.0 means the
        placement provably achieves the optimum.
    """

    load: LoadReport
    bounds: BoundReport
    uniform: bool
    dimension_cut_width: int
    dimension_cut_balanced: bool
    hyperplane_cut_width: int
    hyperplane_array_crossings: int

    @property
    def emax(self) -> float:
        return self.load.emax

    @property
    def optimality_ratio(self) -> float:
        best = self.bounds.best
        return self.emax / best if best > 0 else float("inf")

    @property
    def linearity_ratio(self) -> float:
        """:math:`E_{max}/|P|`."""
        return self.load.linearity_ratio


def analyze(
    placement: Placement,
    routing: RoutingAlgorithm,
) -> PlacementAnalysis:
    """Measure loads, bounds, and bisections for one configuration."""
    loads = compute_loads(placement, routing)
    report = load_report(placement, loads)

    dim_cut = best_dimension_cut(placement)
    sweep = hyperplane_bisection(placement)
    # Eq. (8) needs a *balanced* split; use the best certified bisection.
    widths = [sweep.torus_cut_size] if sweep.is_balanced else []
    if dim_cut.is_balanced:
        widths.append(dim_cut.cut_size)
    bisection_width = min(widths) if widths else None
    bounds = best_known_lower_bound(placement, bisection_width)

    return PlacementAnalysis(
        load=report,
        bounds=bounds,
        uniform=is_uniform(placement),
        dimension_cut_width=dim_cut.cut_size,
        dimension_cut_balanced=dim_cut.is_balanced,
        hyperplane_cut_width=sweep.torus_cut_size,
        hyperplane_array_crossings=sweep.array_edges_crossed,
    )
