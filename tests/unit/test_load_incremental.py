"""Unit tests for the incremental ODR load updates (swap/add deltas)."""

import numpy as np
import pytest

from repro.load.odr_loads import (
    accumulate_pair_loads,
    odr_edge_loads,
    odr_edge_loads_add_delta,
    odr_edge_loads_swap_delta,
    odr_path_table,
)
from repro.placements.base import Placement
from repro.placements.random_placement import random_placement
from repro.torus.topology import Torus


def _swap(torus, placement, out_pos, router_pick):
    ids = placement.node_ids
    removed = int(ids[out_pos])
    routers = np.setdiff1d(np.arange(torus.num_nodes), ids)
    added = int(routers[router_pick])
    kept = np.delete(ids, out_pos)
    return removed, added, kept


class TestSwapDelta:
    @pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (4, 3)])
    def test_matches_full_recompute(self, k, d):
        torus = Torus(k, d)
        placement = random_placement(torus, min(8, torus.num_nodes - 2), seed=k + d)
        loads = odr_edge_loads(placement)
        removed, added, kept = _swap(torus, placement, 2, 1)
        incremental = odr_edge_loads_swap_delta(
            torus, loads, torus.coords(kept), torus.coord(removed),
            torus.coord(added)
        )
        full = odr_edge_loads(Placement(torus, list(kept) + [added]))
        assert np.allclose(incremental, full)

    def test_input_not_mutated(self):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=0)
        loads = odr_edge_loads(placement)
        before = loads.copy()
        removed, added, kept = _swap(torus, placement, 0, 0)
        odr_edge_loads_swap_delta(
            torus, loads, torus.coords(kept), torus.coord(removed),
            torus.coord(added)
        )
        assert np.array_equal(loads, before)

    def test_single_processor_placement(self):
        # kept set empty: swapping the only processor yields zero loads
        torus = Torus(4, 2)
        placement = Placement(torus, [3])
        loads = odr_edge_loads(placement)
        out = odr_edge_loads_swap_delta(
            torus, loads, np.empty((0, 2), dtype=np.int64),
            torus.coord(3), torus.coord(7)
        )
        assert np.allclose(out, loads)  # both all-zero

    def test_identity_swap(self):
        # removing and re-adding the same node is a no-op
        torus = Torus(5, 2)
        placement = random_placement(torus, 6, seed=1)
        loads = odr_edge_loads(placement)
        ids = placement.node_ids
        kept = np.delete(ids, 3)
        out = odr_edge_loads_swap_delta(
            torus, loads, torus.coords(kept), torus.coord(int(ids[3])),
            torus.coord(int(ids[3]))
        )
        assert np.allclose(out, loads)


class TestAddDelta:
    @pytest.mark.parametrize("k,d,seed", [(4, 2, 0), (5, 2, 1), (4, 3, 2)])
    def test_random_grow_sequence_matches_fresh_evaluation(self, k, d, seed):
        # grow a random placement one node at a time; after every step the
        # incrementally maintained loads must equal a from-scratch pass
        torus = Torus(k, d)
        rng = np.random.default_rng(seed)
        ids = rng.choice(torus.num_nodes, size=min(8, torus.num_nodes), replace=False)
        loads = np.zeros(torus.num_edges)
        for m in range(1, len(ids)):
            loads = odr_edge_loads_add_delta(
                torus, loads, torus.coords(ids[:m]), torus.coord(int(ids[m]))
            )
            fresh = odr_edge_loads(Placement(torus, list(ids[: m + 1])))
            assert np.allclose(loads, fresh)

    def test_partial_emax_monotone_under_growth(self):
        # the property the branch-and-bound pruning relies on
        torus = Torus(5, 2)
        rng = np.random.default_rng(3)
        ids = rng.choice(torus.num_nodes, size=7, replace=False)
        loads = np.zeros(torus.num_edges)
        previous = 0.0
        for m in range(1, len(ids)):
            loads = odr_edge_loads_add_delta(
                torus, loads, torus.coords(ids[:m]), torus.coord(int(ids[m]))
            )
            assert loads.max() >= previous
            previous = float(loads.max())

    def test_empty_kept_set_is_identity(self):
        torus = Torus(4, 2)
        loads = np.zeros(torus.num_edges)
        out = odr_edge_loads_add_delta(
            torus, loads, np.empty((0, 2), dtype=np.int64), torus.coord(5)
        )
        assert np.allclose(out, 0.0)

    def test_input_not_mutated(self):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=4)
        loads = odr_edge_loads(placement)
        before = loads.copy()
        routers = np.setdiff1d(np.arange(torus.num_nodes), placement.node_ids)
        odr_edge_loads_add_delta(
            torus, loads, placement.coords(), torus.coord(int(routers[0]))
        )
        assert np.array_equal(loads, before)

    def test_agrees_with_swap_from_nowhere(self):
        # adding node a == swapping a in while removing nothing: cross-check
        # against building the grown placement and comparing swap/add paths
        torus = Torus(5, 2)
        placement = random_placement(torus, 6, seed=5)
        loads = odr_edge_loads(placement)
        routers = np.setdiff1d(np.arange(torus.num_nodes), placement.node_ids)
        added = int(routers[2])
        grown = odr_edge_loads_add_delta(
            torus, loads, placement.coords(), torus.coord(added)
        )
        full = odr_edge_loads(
            Placement(torus, list(placement.node_ids) + [added])
        )
        assert np.allclose(grown, full)


class TestAccumulatePairLoads:
    def test_scale_minus_cancels(self):
        torus = Torus(5, 2)
        p = np.array([[0, 0], [1, 2]])
        q = np.array([[2, 3], [4, 4]])
        loads = np.zeros(torus.num_edges)
        accumulate_pair_loads(loads, 5, 2, p, q, scale=+1.0)
        accumulate_pair_loads(loads, 5, 2, p, q, scale=-1.0)
        assert np.allclose(loads, 0.0)

    def test_matches_engine_on_all_pairs(self):
        torus = Torus(4, 2)
        placement = random_placement(torus, 5, seed=2)
        coords = placement.coords()
        m = len(placement)
        idx = np.arange(m)
        pi, qi = np.meshgrid(idx, idx, indexing="ij")
        keep = pi != qi
        loads = np.zeros(torus.num_edges)
        accumulate_pair_loads(loads, 4, 2, coords[pi[keep]], coords[qi[keep]])
        assert np.allclose(loads, odr_edge_loads(placement))

    def test_weights(self):
        torus = Torus(4, 2)
        p = np.array([[0, 0]])
        q = np.array([[0, 1]])
        loads = np.zeros(torus.num_edges)
        accumulate_pair_loads(
            loads, 4, 2, p, q, weights=np.array([2.5])
        )
        assert loads.sum() == pytest.approx(2.5)


class TestOdrPathTable:
    @pytest.mark.parametrize(
        "k,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3)]
    )
    def test_every_pair_matches_hop_walker(self, k, d):
        # each (source, destination) path, one at a time, against the walker
        torus = Torus(k, d)
        table = odr_path_table(torus)
        coords = torus.all_node_coords()
        pi, qi = np.meshgrid(
            np.arange(torus.num_nodes), np.arange(torus.num_nodes), indexing="ij"
        )
        p, q = coords[pi.ravel()], coords[qi.ravel()]
        edges = table.path_edges(p, q)
        assert edges.shape == (p.shape[0], d * (k // 2))
        for row in range(p.shape[0]):
            expected = np.zeros(torus.num_edges)
            accumulate_pair_loads(expected, k, d, p[row : row + 1], q[row : row + 1])
            walked = np.sort(np.flatnonzero(expected))
            gathered = np.sort(edges[row][edges[row] != table.sink])
            assert np.array_equal(walked, gathered)

    def test_self_pairs_are_all_padding(self):
        torus = Torus(5, 2)
        table = odr_path_table(torus)
        coords = torus.all_node_coords()
        assert np.all(table.path_edges(coords, coords) == table.sink)

    def test_edge_counts_keep_batch_shape(self):
        torus = Torus(4, 2)
        table = odr_path_table(torus)
        edges = np.full((2, 3, 5, 4), table.sink)
        edges[1, 2, 0, 0] = 7
        counts = table.edge_counts(edges)
        assert counts.shape == (2, 3, torus.num_edges)
        assert counts.sum() == 1 and counts[1, 2, 7] == 1

    def test_table_is_cached(self):
        assert odr_path_table(Torus(4, 2)) is odr_path_table(Torus(4, 2))


class TestBatchedDeltas:
    """Leading axes batch independent rows; each row equals its own call."""

    def test_add_delta_rows_match_single_calls(self):
        torus = Torus(5, 2)
        rng = np.random.default_rng(11)
        rows = [rng.choice(torus.num_nodes, size=5, replace=False) for _ in range(4)]
        base = np.stack(
            [odr_edge_loads(Placement(torus, list(ids[:-1]))) for ids in rows]
        )
        kept = np.stack([torus.coords(ids[:-1]) for ids in rows])
        added = np.stack([torus.coords(ids[-1:])[0] for ids in rows])
        grown = odr_edge_loads_add_delta(torus, base, kept, added)
        assert grown.shape == base.shape
        for i, ids in enumerate(rows):
            assert np.array_equal(grown[i], odr_edge_loads(Placement(torus, list(ids))))

    def test_swap_delta_candidates_share_one_load_vector(self):
        # the local-search shape: one current placement, many candidate swaps
        torus = Torus(6, 2)
        placement = random_placement(torus, 6, seed=3)
        ids = placement.node_ids
        loads = odr_edge_loads(placement)
        routers = np.setdiff1d(np.arange(torus.num_nodes), ids)
        outs, ins = np.array([0, 3, 5, 3]), np.array([1, 4, 0, 9])
        kept = np.stack([torus.coords(np.delete(ids, o)) for o in outs])
        swapped = odr_edge_loads_swap_delta(
            torus, loads, kept, torus.coords(ids[outs]), torus.coords(routers[ins])
        )
        assert swapped.shape == (len(outs), torus.num_edges)
        for row, (o, i) in enumerate(zip(outs, ins)):
            moved = list(np.delete(ids, o)) + [int(routers[i])]
            assert np.array_equal(swapped[row], odr_edge_loads(Placement(torus, moved)))
