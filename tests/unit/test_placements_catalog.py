"""Unit tests for repro.placements.catalog."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import InvalidParameterError
from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import (
    MAX_CATALOG,
    _evaluate_chunk,
    global_minimum_emax,
)
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus


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

    def test_invalid_size(self):
        torus = Torus(3, 2)
        with pytest.raises(InvalidParameterError):
            global_minimum_emax(torus, 0)
        with pytest.raises(InvalidParameterError):
            global_minimum_emax(torus, 10)

    def test_too_large_rejected(self):
        torus = Torus(6, 2)
        # C(36, 18) >> MAX_CATALOG
        assert math.comb(36, 18) > MAX_CATALOG
        with pytest.raises(InvalidParameterError):
            global_minimum_emax(torus, 18)


class TestAgainstOracle:
    """The block scan against the per-placement oracle, ``odr_edge_loads``."""

    @pytest.mark.parametrize(
        "k,d,size",
        [(4, 2, n) for n in (1, 2, 3, 4, 5)] + [(5, 2, 3), (3, 3, 3)],
    )
    def test_matches_hop_walker_oracle(self, k, d, size):
        torus = Torus(k, d)
        combos = itertools.combinations(range(torus.num_nodes), size)
        best, best_ids, num_optimal, histogram = _evaluate_chunk((k, d, combos))
        res = global_minimum_emax(torus, size)
        assert res.minimum_emax == best
        assert res.num_optimal == num_optimal
        assert res.emax_histogram == histogram
        # the witness is the lexicographically smallest optimum
        assert tuple(res.example_optimal.node_ids.tolist()) == best_ids


#: the most minor page faults per T_5^2 n = 4 catalog in a fresh
#: interpreter that imports only the catalog, over three allocator
#: histories: a smaller scan, one warm-up, then 20 measured scans.  Blocks
#: whose scratch arrays exceed 128 KiB fault thousands of times per scan
#: after some histories and not after others (the end-to-end benchmark
#: warms up with n = 2).
_FAULTS_PER_SCAN = """
import resource
from repro.placements.catalog import global_minimum_emax
from repro.torus.topology import Torus
torus = Torus(5, 2)
worst = 0.0
for size in (1, 2, 3):
    global_minimum_emax(torus, size)
    global_minimum_emax(torus, 4)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        global_minimum_emax(torus, 4)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    worst = max(worst, faults / 20)
print(worst)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts minor page faults against glibc's mmap threshold",
)
def test_block_scan_reuses_heap_memory():
    # blocks whose scratch arrays cross the mmap threshold map and unmap
    # them on every block: thousands of faults per scan, not a handful
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_SCAN],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert float(proc.stdout) < 50
