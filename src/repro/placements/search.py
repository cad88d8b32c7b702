"""Randomized local search over placements of a fixed size.

The paper proves linear placements asymptotically optimal.  This module
asks the empirical converse: *can a generic optimizer find an equal-size
placement with lower maximum load?*  :func:`local_search_placement` runs
steepest-descent-with-restarts (optionally simulated annealing) over the
"swap one processor for one router" neighbourhood, minimizing the exact
ODR :math:`E_{max}`.  EXP-19 uses it to show search plateaus at — not
below — the linear placement's load, strengthening the optimality story
beyond the lower-bound argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.load.odr_loads import odr_edge_loads, odr_edge_loads_swap_delta
from repro.placements.base import Placement
from repro.torus.topology import Torus
from repro.util.rng import resolve_rng

__all__ = ["SearchResult", "local_search_placement", "placement_objective"]


def placement_objective(placement: Placement) -> float:
    """The search objective: exact ODR :math:`E_{max}` (complete exchange)."""
    return float(odr_edge_loads(placement).max())


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one local-search run.

    Attributes
    ----------
    best:
        The best placement found.
    best_emax:
        Its objective value.
    initial_emax:
        Objective of the starting placement.
    evaluations:
        Number of objective evaluations spent.
    trajectory:
        Objective value after each accepted move (starts with the initial
        value) — lets callers plot/inspect convergence.
    """

    best: Placement
    best_emax: float
    initial_emax: float
    evaluations: int
    trajectory: tuple[float, ...]

    @property
    def improvement(self) -> float:
        """``initial_emax - best_emax`` (>= 0)."""
        return self.initial_emax - self.best_emax


def local_search_placement(
    start: Placement,
    max_moves: int = 200,
    candidates_per_move: int = 16,
    temperature: float = 0.0,
    seed=None,
) -> SearchResult:
    """Minimize ODR :math:`E_{max}` by single-processor relocation moves.

    Parameters
    ----------
    start:
        Initial placement; its size is preserved by every move.
    max_moves:
        Accepted-move budget (the search also stops after
        ``4 * max_moves`` rejections in all; the count is never reset).
    candidates_per_move:
        Random (processor, router) swap candidates evaluated per step; the
        best is taken (steepest descent over a sampled neighbourhood).
    temperature:
        0 gives strict descent; > 0 accepts uphill moves with Metropolis
        probability ``exp(-delta / temperature)`` (simulated annealing
        with a fixed temperature).
    seed:
        RNG seed.

    Returns
    -------
    SearchResult
    """
    if max_moves < 0:
        raise InvalidParameterError(f"max_moves must be >= 0, got {max_moves}")
    if candidates_per_move < 1:
        raise InvalidParameterError(
            f"candidates_per_move must be >= 1, got {candidates_per_move}"
        )
    rng = resolve_rng(seed)
    torus: Torus = start.torus

    current_ids = start.node_ids.copy()
    current = start
    # the full load vector, kept up to date so each candidate swap costs
    # O(|P|) pair work via the incremental engine instead of O(|P|^2); a
    # move's sampled candidates are evaluated together in one path-table
    # scatter
    current_loads = odr_edge_loads(current)
    current_emax = float(current_loads.max())
    best = current
    best_emax = current_emax
    initial_emax = current_emax
    evaluations = 1
    trajectory = [current_emax]

    routers = np.setdiff1d(
        np.arange(torus.num_nodes, dtype=np.int64), current_ids
    )
    if routers.size == 0:
        # fully populated: no move exists
        return SearchResult(
            best=best,
            best_emax=best_emax,
            initial_emax=initial_emax,
            evaluations=evaluations,
            trajectory=tuple(trajectory),
        )

    coords = torus.all_node_coords()
    slots = np.arange(current_ids.size - 1)

    accepted = 0
    rejections = 0
    while accepted < max_moves and rejections < 4 * max_moves:
        # sample candidate swaps and take the best (the first, on ties);
        # one call draws the (processor, router) pairs in the order the
        # generator's stream would give them one by one
        draws = rng.integers(
            0,
            np.array([current_ids.size, routers.size]),
            size=(candidates_per_move, 2),
        )
        out_idx, in_idx = draws[:, 0], draws[:, 1]
        # row i keeps every processor except the one at out_idx[i]
        skip = slots[None, :] >= out_idx[:, None]
        kept = current_ids[slots[None, :] + skip]
        cand_loads = odr_edge_loads_swap_delta(
            torus,
            current_loads,
            coords[kept],
            coords[current_ids[out_idx]],
            coords[routers[in_idx]],
        )
        evaluations += candidates_per_move
        emaxes = cand_loads.max(axis=1)
        best_row = int(np.argmin(emaxes))
        emax = float(emaxes[best_row])
        cand_loads = cand_loads[best_row]
        out_idx = int(out_idx[best_row])
        added_id = int(routers[in_idx[best_row]])
        delta = emax - current_emax
        accept = delta < 0 or (
            temperature > 0
            and rng.random() < np.exp(-delta / temperature)
        )
        if accept:
            cand_ids = current_ids.copy()
            cand_ids[out_idx] = added_id
            cand = Placement(torus, cand_ids, name=f"{start.name}|search")
            # adopt the candidate; recompute the id arrays from it so they
            # stay canonical (Placement sorts its ids)
            current = cand
            current_ids = cand.node_ids.copy()
            routers = np.setdiff1d(
                np.arange(torus.num_nodes, dtype=np.int64), current_ids
            )
            current_loads = cand_loads
            current_emax = emax
            trajectory.append(current_emax)
            accepted += 1
            if emax < best_emax:
                best_emax = emax
                best = cand
        else:
            rejections += 1
    return SearchResult(
        best=best,
        best_emax=best_emax,
        initial_emax=initial_emax,
        evaluations=evaluations,
        trajectory=tuple(trajectory),
    )
