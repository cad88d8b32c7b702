"""Simulated network state: link liveness and per-link counters."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.torus.topology import Torus

__all__ = ["SimNetwork"]


class SimNetwork:
    """Mutable network state for one simulation run.

    Parameters
    ----------
    torus:
        The underlying topology.
    failed_edge_ids:
        Dense ids of links considered down; packets whose path includes a
        failed link are rejected at injection (the workload builder routes
        around failures via :class:`~repro.routing.faults.FaultMaskedRouting`).
    """

    def __init__(self, torus: Torus, failed_edge_ids=()):
        self.torus = torus
        self.alive = np.ones(torus.num_edges, dtype=bool)
        failed = np.asarray(list(failed_edge_ids), dtype=np.int64)
        if failed.size:
            if failed.min() < 0 or failed.max() >= torus.num_edges:
                raise SimulationError(
                    f"failed edge ids must lie in [0, {torus.num_edges})"
                )
            self.alive[failed] = False
        #: per-link packet-traversal counters (the simulator's E(l) estimate)
        self.link_counts = np.zeros(torus.num_edges, dtype=np.int64)

    @property
    def num_failed(self) -> int:
        """Number of failed directed links."""
        return int(np.count_nonzero(~self.alive))

    def check_path_alive(self, edge_ids) -> bool:
        """Whether every link of a path is up."""
        return bool(np.all(self.alive[np.asarray(edge_ids, dtype=np.int64)]))
