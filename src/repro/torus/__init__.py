"""The d-dimensional k-torus substrate (Definition 1 of the paper).

This subpackage models :math:`T_k^d` as a directed graph with dense integer
node and edge indexing, so that all placement/routing/load machinery can
work on flat numpy arrays:

* :mod:`repro.torus.coords` — coordinate ↔ node-id conversion,
* :mod:`repro.torus.topology` — the :class:`Torus` object,
* :mod:`repro.torus.edges` — the directed-edge indexing scheme,
* :mod:`repro.torus.subtorus` — principal subtori,
* :mod:`repro.torus.graph` — networkx export for cross-validation
  (imported on its own: networkx is a test dependency),
* :mod:`repro.torus.lattice` — the array :math:`A_k^d` embedding used by
  the paper's Appendix (hyperplane-sweep bisection).
"""

from repro.torus.topology import Torus
from repro.torus.edges import EdgeIndex, Edge
from repro.torus.coords import coords_to_ids, ids_to_coords, all_coords
from repro.torus.subtorus import principal_subtorus_nodes, subtorus_layer_counts
from repro.torus.lattice import ArrayLattice

__all__ = [
    "Torus",
    "EdgeIndex",
    "Edge",
    "coords_to_ids",
    "ids_to_coords",
    "all_coords",
    "principal_subtorus_nodes",
    "subtorus_layer_counts",
    "ArrayLattice",
]
