"""Unit tests for repro.placements.catalog."""

import itertools
import math

import pytest

from repro.errors import InvalidParameterError
from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import (
    MAX_CATALOG,
    _evaluate_chunk,
    enumerate_placements,
    global_minimum_emax,
)
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


class TestEnumerate:
    def test_count(self):
        torus = Torus(3, 2)
        assert sum(1 for _ in enumerate_placements(torus, 3)) == math.comb(9, 3)

    def test_each_has_requested_size(self):
        torus = Torus(2, 2)
        for p in enumerate_placements(torus, 2):
            assert len(p) == 2

    def test_invalid_size(self):
        torus = Torus(3, 2)
        with pytest.raises(InvalidParameterError):
            list(enumerate_placements(torus, 0))
        with pytest.raises(InvalidParameterError):
            list(enumerate_placements(torus, 10))


class TestGlobalMinimum:
    def test_t32_linear_is_global_optimum(self):
        torus = Torus(3, 2)
        res = global_minimum_emax(torus, 3)
        linear_emax = float(odr_edge_loads(linear_placement(torus)).max())
        assert res.minimum_emax == linear_emax
        assert res.num_placements == 84
        assert res.num_optimal >= 1
        assert float(
            odr_edge_loads(res.example_optimal).max()
        ) == res.minimum_emax

    def test_histogram_sums_to_total(self):
        torus = Torus(3, 2)
        res = global_minimum_emax(torus, 3)
        assert sum(res.emax_histogram.values()) == res.num_placements

    def test_minimum_is_histogram_min(self):
        torus = Torus(3, 2)
        res = global_minimum_emax(torus, 3)
        assert res.minimum_emax == min(res.emax_histogram)

    def test_too_large_rejected(self):
        torus = Torus(6, 2)
        # C(36, 18) >> MAX_CATALOG
        assert math.comb(36, 18) > MAX_CATALOG
        with pytest.raises(InvalidParameterError):
            global_minimum_emax(torus, 18)


class TestParallel:
    def test_parallel_matches_serial(self):
        torus = Torus(3, 2)
        serial = global_minimum_emax(torus, 3)
        parallel = global_minimum_emax(torus, 3, processes=2)
        assert serial.minimum_emax == parallel.minimum_emax
        assert serial.num_optimal == parallel.num_optimal
        assert serial.emax_histogram == parallel.emax_histogram

    def test_processes_one_is_serial(self):
        torus = Torus(3, 2)
        a = global_minimum_emax(torus, 3, processes=1)
        b = global_minimum_emax(torus, 3)
        assert a.minimum_emax == b.minimum_emax


class TestAgainstOracle:
    """The table-scatter sweep against the per-placement hop walker."""

    @pytest.mark.parametrize(
        "k,d,size,processes",
        [(4, 2, n, None) for n in (1, 2, 3, 5)]
        + [(4, 2, 4, 2), (5, 2, 3, None), (3, 3, 3, None)],
    )
    def test_matches_hop_walker_oracle(self, k, d, size, processes):
        torus = Torus(k, d)
        combos = itertools.combinations(range(torus.num_nodes), size)
        best, best_ids, num_optimal, histogram = _evaluate_chunk((k, d, combos))
        res = global_minimum_emax(torus, size, processes=processes)
        assert res.minimum_emax == best
        assert res.num_optimal == num_optimal
        assert res.emax_histogram == histogram
        # the witness is the lexicographically smallest optimum
        assert tuple(res.example_optimal.node_ids.tolist()) == best_ids
