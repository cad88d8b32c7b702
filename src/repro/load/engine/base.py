"""Backend protocol for the :class:`~repro.load.engine.LoadEngine` facade.

A *backend* is one strategy for evaluating Definition 4's per-edge loads

.. math::

    \\mathcal{E}(l) = \\sum_{p \\ne q \\in P}
        w_{pq}\\,\\frac{|C^A_{p→l→q}|}{|C^A_{p→q}|}

given a placement, a routing algorithm, and an optional traffic matrix.
Every backend must produce *exactly* the same numbers as the reference
oracle (:func:`repro.load.edge_loads.edge_loads_reference`) whenever it
declares itself applicable via :meth:`LoadBackend.supports`; the engine's
cross-check utilities and the unit tests enforce this to ``1e-9``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.placements.base import Placement
from repro.routing.base import RoutingAlgorithm

__all__ = ["LoadBackend"]


class LoadBackend(abc.ABC):
    """One strategy for computing exact per-edge loads.

    Subclasses implement :meth:`compute`, which evaluates one placement
    per call, and — when they only handle a subset of routings or
    traffic patterns — override :meth:`supports` so the ``auto`` engine
    can skip them cleanly.
    """

    #: registry / CLI name of the backend.
    name: str = "backend"

    def supports(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> bool:
        """Whether :meth:`compute` can handle this configuration exactly."""
        return True

    @abc.abstractmethod
    def compute(
        self,
        placement: Placement,
        routing: RoutingAlgorithm,
        pair_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-edge loads; ``float64`` of length ``torus.num_edges``."""

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(name={self.name!r})"
