"""The paper's contribution as a user-facing API.

* :func:`~repro.core.designer.design_placement` — "give me an optimal
  placement + routing for :math:`T_k^d`": a (multiple) linear placement of
  size :math:`tk^{d-1}` with ODR (simple) or UDR (fault-tolerant), plus the
  paper's predicted load figures.
* :func:`~repro.core.analysis.analyze` — measure everything about any
  placement/routing pair: exact loads, every lower bound, constructive
  bisections, optimality ratios.
* :mod:`repro.core.scaling` — ``k``-sweeps of a placement family and the
  power-law fits of :math:`E_{max}` against :math:`|P|` behind the
  linear-vs-superlinear headline comparison.
"""

from repro.core.designer import Design, design_placement
from repro.core.analysis import PlacementAnalysis, analyze, compute_loads
from repro.core.report_md import analysis_report_md
from repro.core.scaling import PowerLawFit, fit_power_law, scaling_rows

__all__ = [
    "Design",
    "design_placement",
    "PlacementAnalysis",
    "analyze",
    "compute_loads",
    "analysis_report_md",
    "PowerLawFit",
    "fit_power_law",
    "scaling_rows",
]
