"""Processor placements on the torus (Definition 2 of the paper).

A *placement* is a subset of torus nodes that host processors; every other
node is a pure router.  The paper's central objects are:

* **linear placements** (:mod:`repro.placements.linear`) —
  ``{p : Σ c_i p_i ≡ c (mod k)}``, size :math:`k^{d-1}`, uniform;
* **multiple linear placements** (:mod:`repro.placements.multiple`) —
  unions of ``t`` parallel linear classes, size :math:`tk^{d-1}`;
* the **shifted diagonal** placements of Blaum et al.
  (:mod:`repro.placements.diagonal`), special cases of the above;
* contrast/baseline families (:mod:`repro.placements.fully`,
  :mod:`repro.placements.random_placement`) used by the experiments:
  the fully populated torus (superlinear load) and non-uniform
  counterexamples.
"""

from repro.placements.base import Placement, PlacementFamily
from repro.placements.linear import LinearPlacementFamily, linear_placement
from repro.placements.multiple import (
    MultipleLinearPlacementFamily,
    multiple_linear_placement,
)
from repro.placements.diagonal import (
    shifted_diagonal_placement,
    antidiagonal_placement_2d,
)
from repro.placements.fully import (
    fully_populated_placement,
    block_placement,
    single_subtorus_placement,
)
from repro.placements.random_placement import (
    random_placement,
    random_uniform_placement,
)
from repro.placements.analysis import (
    layer_counts,
    is_uniform,
    uniform_dimensions,
)
from repro.placements.registry import get_family
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import (
    ExactSearchResult,
    SearchCounters,
    exact_global_minimum,
)
from repro.placements.symmetry import (
    translate_placement,
    permute_dimensions,
    reflect_dimensions,
    canonical_form,
    are_equivalent_placements,
    AutomorphismGroup,
    automorphism_group,
)

__all__ = [
    "Placement",
    "PlacementFamily",
    "LinearPlacementFamily",
    "linear_placement",
    "MultipleLinearPlacementFamily",
    "multiple_linear_placement",
    "shifted_diagonal_placement",
    "antidiagonal_placement_2d",
    "fully_populated_placement",
    "block_placement",
    "single_subtorus_placement",
    "random_placement",
    "random_uniform_placement",
    "layer_counts",
    "is_uniform",
    "uniform_dimensions",
    "get_family",
    "global_minimum_emax",
    "ExactSearchResult",
    "SearchCounters",
    "exact_global_minimum",
    "translate_placement",
    "permute_dimensions",
    "reflect_dimensions",
    "canonical_form",
    "are_equivalent_placements",
    "AutomorphismGroup",
    "automorphism_group",
]
