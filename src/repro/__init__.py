"""repro — Lower Bounds on Communication Loads and Optimal Placements in
Torus Networks.

A from-scratch reproduction of Azizoglu & Egecioglu (IPPS 1998 / IEEE TC
2000): partially populated d-dimensional k-tori, linear and multiple
linear processor placements, ODR/UDR minimal routing, exact communication
load analysis under complete exchange, bisection width with respect to a
placement (dimension cuts and the Appendix's hyperplane sweep), every
lower bound the paper states, a cycle-accurate packet simulator, and a
per-claim experiment suite.

Quickstart::

    from repro import design_placement, analyze

    design = design_placement(k=8, d=3, t=1, routing="udr")
    report = analyze(design.placement, design.routing)
    print(report.emax, report.bounds.best, report.optimality_ratio)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro._version import __version__
from repro.core.analysis import PlacementAnalysis, analyze, compute_loads
from repro.core.designer import Design, design_placement
from repro.core.scaling import fit_power_law, scaling_rows
from repro.placements.base import Placement, PlacementFamily
from repro.placements.linear import linear_placement
from repro.placements.multiple import multiple_linear_placement
from repro.routing.odr import OrderedDimensionalRouting
from repro.routing.udr import UnorderedDimensionalRouting
from repro.torus.topology import Torus

__all__ = [
    "__version__",
    "Torus",
    "Placement",
    "PlacementFamily",
    "linear_placement",
    "multiple_linear_placement",
    "OrderedDimensionalRouting",
    "UnorderedDimensionalRouting",
    "Design",
    "design_placement",
    "PlacementAnalysis",
    "analyze",
    "compute_loads",
    "fit_power_law",
    "scaling_rows",
]
