"""Unit tests for repro.placements.search."""

import pytest

from repro.errors import InvalidParameterError
from repro.placements.fully import fully_populated_placement
from repro.placements.linear import linear_placement
from repro.placements.random_placement import random_placement
from repro.placements.search import (
    local_search_placement,
    placement_objective,
)
from repro.torus.topology import Torus


class TestObjective:
    def test_matches_odr_emax(self):
        from repro.load.odr_loads import odr_edge_loads

        p = linear_placement(Torus(5, 2))
        assert placement_objective(p) == odr_edge_loads(p).max()


class TestLocalSearch:
    def test_never_worse_than_start(self):
        start = random_placement(Torus(4, 2), 4, seed=7)
        res = local_search_placement(start, max_moves=10, seed=0)
        assert res.best_emax <= res.initial_emax
        assert res.improvement >= 0

    def test_preserves_size(self):
        start = random_placement(Torus(5, 2), 5, seed=1)
        res = local_search_placement(start, max_moves=10, seed=0)
        assert len(res.best) == 5

    def test_trajectory_monotone_at_zero_temperature(self):
        start = random_placement(Torus(5, 2), 5, seed=2)
        res = local_search_placement(start, max_moves=15, seed=0)
        assert all(
            b <= a for a, b in zip(res.trajectory, res.trajectory[1:])
        )

    def test_reaches_linear_optimum(self):
        torus = Torus(5, 2)
        linear_emax = placement_objective(linear_placement(torus))
        start = random_placement(torus, 5, seed=3)
        res = local_search_placement(
            start, max_moves=40, candidates_per_move=16, seed=0
        )
        assert res.best_emax >= linear_emax - 1e-9  # cannot beat the optimum

    def test_deterministic(self):
        start = random_placement(Torus(4, 2), 4, seed=4)
        a = local_search_placement(start, max_moves=8, seed=5)
        b = local_search_placement(start, max_moves=8, seed=5)
        assert a.best_emax == b.best_emax
        assert a.trajectory == b.trajectory

    @pytest.mark.parametrize(
        "k,seed_start,moves,seed,temperature,trajectory,evaluations,best",
        [
            (6, 4, 8, 21, 0.0, (7.0, 5.0, 4.0), 545, [13, 17, 19, 22, 30, 32]),
            (5, 2, 6, 5, 0.7, (3.0,) * 5 + (2.0, 2.0), 97, [7, 8, 10, 12, 20]),
        ],
    )
    def test_pinned_runs(
        self, k, seed_start, moves, seed, temperature, trajectory, evaluations,
        best,
    ):
        # recorded with one swap-delta call per candidate; evaluating a
        # move's candidates in one batched call must not change any draw
        # or any choice
        start = random_placement(Torus(k, 2), k, seed=seed_start)
        res = local_search_placement(
            start, max_moves=moves, temperature=temperature, seed=seed
        )
        assert res.trajectory == trajectory
        assert res.evaluations == evaluations
        assert res.best.node_ids.tolist() == best

    def test_fully_populated_has_no_moves(self):
        p = fully_populated_placement(Torus(3, 2))
        res = local_search_placement(p, max_moves=5, seed=0)
        assert res.best == p
        assert res.evaluations == 1

    def test_annealing_accepts_uphill(self):
        start = random_placement(Torus(4, 2), 4, seed=6)
        res = local_search_placement(
            start, max_moves=20, temperature=5.0, seed=0
        )
        assert res.best_emax <= res.initial_emax

    def test_invalid_args(self):
        start = random_placement(Torus(4, 2), 4, seed=0)
        with pytest.raises(InvalidParameterError):
            local_search_placement(start, max_moves=-1)
        with pytest.raises(InvalidParameterError):
            local_search_placement(start, candidates_per_move=0)
