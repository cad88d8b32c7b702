"""Edge separators and bisections with respect to a placement (Defs. 7–8).

The *bisection width with respect to a placement P* is the minimum number
of edges whose removal splits the node set into two parts each holding
half (within one) of ``P``'s processors.  The paper gives:

* Theorem 1 — for uniform placements, two parallel dimension cuts of
  :math:`4k^{d-1}` directed edges suffice
  (:mod:`repro.bisection.dimension_cut`);
* Proposition 1 / Corollary 1 / Appendix — for *any* placement, a sweeping
  hyperplane crosses at most :math:`2dk^{d-1}` undirected array edges,
  giving :math:`|∂_b P| \\le 6dk^{d-1}` directed torus edges
  (:mod:`repro.bisection.hyperplane`);
* exact brute force for cross-validation on tiny tori
  (:mod:`repro.bisection.exact`).
"""

from repro.bisection.separator import separator_edges, separator_size
from repro.bisection.dimension_cut import (
    DimensionCutBisection,
    dimension_cut_bisection,
    best_dimension_cut,
)
from repro.bisection.hyperplane import (
    HyperplaneBisection,
    hyperplane_bisection,
)
from repro.bisection.exact import exact_bisection_width

__all__ = [
    "separator_edges",
    "separator_size",
    "DimensionCutBisection",
    "dimension_cut_bisection",
    "best_dimension_cut",
    "HyperplaneBisection",
    "hyperplane_bisection",
    "exact_bisection_width",
]
