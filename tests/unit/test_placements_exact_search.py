"""Unit tests for the symmetry-reduced exact search engine."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.errors import InvalidParameterError, SearchError
from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.placements.symmetry import automorphism_group
from repro.torus.topology import Torus


@pytest.fixture(scope="module")
def catalog_4_2():
    return global_minimum_emax(Torus(4, 2), 4)


@pytest.fixture(scope="module")
def full_4_2():
    return exact_global_minimum(Torus(4, 2), 4, mode="full")


class TestFullModeVsBruteForce:
    def test_minimum_identical(self, catalog_4_2, full_4_2):
        assert full_4_2.minimum_emax == catalog_4_2.minimum_emax

    def test_num_optimal_identical(self, catalog_4_2, full_4_2):
        assert full_4_2.num_optimal == catalog_4_2.num_optimal

    def test_histogram_bit_identical(self, catalog_4_2, full_4_2):
        # restricted-ODR loads are exact integers in float64, so the
        # orbit-weighted histogram keys match the brute force exactly
        assert full_4_2.emax_histogram == catalog_4_2.emax_histogram

    def test_t3_matches_too(self):
        torus = Torus(3, 2)
        catalog = global_minimum_emax(torus, 3)
        result = exact_global_minimum(torus, 3, mode="full")
        assert result.minimum_emax == catalog.minimum_emax
        assert result.num_optimal == catalog.num_optimal
        assert result.emax_histogram == catalog.emax_histogram

    @pytest.mark.parametrize("k, d, size", [(3, 3, 4), (4, 3, 3)])
    def test_d3_matches_too(self, k, d, size):
        # d = 3 has the largest point group (48 elements)
        torus = Torus(k, d)
        catalog = global_minimum_emax(torus, size)
        result = exact_global_minimum(torus, size, mode="full")
        assert result.minimum_emax == catalog.minimum_emax
        assert result.num_optimal == catalog.num_optimal
        assert result.emax_histogram == catalog.emax_histogram

    @pytest.mark.parametrize("k, d", [(8, 2), (9, 2), (3, 4)])
    def test_word_boundary_tori_match_too(self, k, d):
        # canonicity masks take ceil(k^d / 64) words: T_8^2 fills one
        # exactly, T_9^2 and T_3^4 spill into a second
        torus = Torus(k, d)
        catalog = global_minimum_emax(torus, 3)
        result = exact_global_minimum(torus, 3, mode="full")
        assert result.minimum_emax == catalog.minimum_emax
        assert result.num_optimal == catalog.num_optimal
        assert result.emax_histogram == catalog.emax_histogram


class TestOrbitAccounting:
    def test_histogram_covers_all_placements(self, full_4_2):
        # Burnside cross-check: orbit sizes from stabilizer counting must
        # sum to C(k^d, n) exactly
        assert sum(full_4_2.emax_histogram.values()) == math.comb(16, 4)
        assert full_4_2.num_placements == math.comb(16, 4)

    def test_orbit_sizes_sum_via_group(self):
        # independent Burnside check straight from the group: every
        # size-3 subset of T_3^2, binned by canonicity
        torus = Torus(3, 2)
        group = automorphism_group(torus)
        import itertools

        total = 0
        for ids in itertools.combinations(range(torus.num_nodes), 3):
            canonical, stab = group.canonicity(ids)
            if canonical:
                total += group.order // stab
        assert total == math.comb(9, 3)

    def test_num_orbits_reported_in_full_mode(self, full_4_2):
        assert full_4_2.num_orbits == 33  # known orbit count of C(16,4)


class TestBoundMode:
    def test_matches_full_mode(self, full_4_2):
        result = exact_global_minimum(Torus(4, 2), 4, mode="bound")
        assert result.minimum_emax == full_4_2.minimum_emax
        assert result.num_optimal == full_4_2.num_optimal

    def test_no_histogram_in_bound_mode(self):
        result = exact_global_minimum(Torus(3, 2), 3, mode="bound")
        assert result.emax_histogram is None
        assert result.num_orbits is None

    def test_seeded_incumbent_still_exact(self, full_4_2):
        torus = Torus(4, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        result = exact_global_minimum(
            torus, 4, mode="bound", initial_upper_bound=ub
        )
        assert result.minimum_emax == full_4_2.minimum_emax
        assert result.num_optimal == full_4_2.num_optimal

    def test_t5_certified(self):
        torus = Torus(5, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        result = exact_global_minimum(
            torus, 5, mode="bound", initial_upper_bound=ub
        )
        assert result.minimum_emax == 2.0
        assert result.num_optimal == 1545
        assert result.num_placements == math.comb(25, 5)

    def test_unachievable_upper_bound_raises(self):
        with pytest.raises(SearchError):
            exact_global_minimum(
                Torus(3, 2), 3, mode="bound", initial_upper_bound=0.25
            )


class TestLadder:
    def test_climbs_from_eq6_and_stops_at_the_minimum(self):
        # T_5^2 n=5: Eq. 6 gives ceil(4/4) = 1, refuted; the minimum is 2
        result = exact_global_minimum(Torus(5, 2), 5)
        assert [upper for upper, _ in result.rungs] == [1.0, 2.0]
        assert result.minimum_emax == result.rungs[-1][0]
        assert sum(nodes for _, nodes in result.rungs) == (
            result.counters.canonical_nodes
        )

    def test_t6_certifies_on_its_first_rung(self):
        # Eq. 6 gives ceil(5/4) = 2, already the minimum: nothing above
        # it is searched, whatever the cap
        for cap in (None, 3.0, 10.0):
            result = exact_global_minimum(
                Torus(6, 2), 6, initial_upper_bound=cap
            )
            assert result.rungs == ((2.0, 520),)
            assert result.counters.canonical_nodes == 520
            assert (result.minimum_emax, result.num_optimal) == (2.0, 24)

    def test_cap_below_the_minimum_raises(self):
        # rung 1 is searched and refuted; rung 2 lies above the cap
        with pytest.raises(SearchError, match="1 rungs refuted"):
            exact_global_minimum(Torus(5, 2), 5, initial_upper_bound=1.5)

    def test_uncapped_ladder_does_not_screen(self, monkeypatch):
        from repro.placements import exact_search

        def refuse(*args, **kwargs):
            raise AssertionError("the uncapped ladder must not screen")

        monkeypatch.setattr(exact_search, "screen_initial_upper_bound", refuse)
        result = exact_global_minimum(Torus(4, 2), 4)
        assert (result.minimum_emax, result.num_optimal) == (2.0, 292)

    def test_full_mode_has_no_rungs(self, full_4_2):
        assert full_4_2.rungs == ()


def _constructed_candidates(torus):
    """The screen's candidates built one by one through their families'
    constructors, in the screen's order."""
    from repro.placements.diagonal import (
        antidiagonal_placement_2d,
        shifted_diagonal_placement,
    )
    from repro.placements.exact_search import _SCREEN_COEFFICIENT_VARIANTS

    k, d = torus.k, torus.d
    units = [c for c in range(2, k) if math.gcd(c, k) == 1]
    coefficient_sets = [[1] * d] + [
        [1] * (d - 1) + [c] for c in units[:_SCREEN_COEFFICIENT_VARIANTS]
    ]
    candidates = [
        linear_placement(torus, coefficients=coeffs, offset=offset)
        for coeffs in coefficient_sets
        for offset in range(k)
    ]
    if d == 2:
        candidates.extend(shifted_diagonal_placement(torus, s) for s in range(k))
        candidates.extend(antidiagonal_placement_2d(torus, s) for s in range(k))
    return candidates


_SCREENED_TORI = [(k, 2) for k in range(4, 11)] + [
    (3, 3), (4, 3), (5, 3), (3, 4),
]


class TestScreen:
    @pytest.mark.parametrize("k, d", _SCREENED_TORI)
    def test_rows_are_the_constructed_placements(self, k, d):
        from repro.placements.exact_search import _screen_rows

        torus = Torus(k, d)
        ids, _ = _screen_rows(torus, k ** (d - 1))
        expected = np.stack([c.node_ids for c in _constructed_candidates(torus)])
        assert np.array_equal(ids, expected)

    @pytest.mark.parametrize("k, d", _SCREENED_TORI)
    def test_winner_is_the_first_best_constructed(self, k, d):
        from repro.load.plancache import current_plan_cache
        from repro.placements.catalog import block_emax
        from repro.placements.exact_search import screen_initial_upper_bound
        from repro.routing.odr import OrderedDimensionalRouting
        from repro.util.itertools_ext import ordered_pair_index_arrays

        torus = Torus(k, d)
        size = k ** (d - 1)
        candidates = _constructed_candidates(torus)
        table = current_plan_cache().get(
            torus, OrderedDimensionalRouting(d)
        ).table
        emaxes = block_emax(
            table,
            np.stack([c.node_ids for c in candidates]),
            ordered_pair_index_arrays(size),
        )
        best = candidates[int(np.argmin(emaxes))]
        upper, seed = screen_initial_upper_bound(torus, size)
        assert upper == float(emaxes.min())
        assert seed.name == best.name
        assert np.array_equal(seed.node_ids, best.node_ids)

    def test_no_structured_family_matches(self):
        from repro.placements.exact_search import screen_initial_upper_bound

        assert screen_initial_upper_bound(Torus(5, 2), 4) is None
        assert screen_initial_upper_bound(Torus(4, 3), 5) is None


class TestWitness:
    def test_witness_reevaluates_to_minimum(self, full_4_2):
        # independent full evaluation certifies the reported witness
        emax = float(odr_edge_loads(full_4_2.example_optimal).max())
        assert emax == full_4_2.minimum_emax

    def test_witness_size(self, full_4_2):
        assert len(full_4_2.example_optimal) == 4


class TestCounters:
    def test_far_fewer_leaf_variants_than_placements(self, full_4_2):
        assert (
            full_4_2.counters.variant_evaluations
            < full_4_2.num_placements / 5
        )

    def test_bound_mode_prunes(self):
        torus = Torus(4, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        result = exact_global_minimum(
            torus, 4, mode="bound", initial_upper_bound=ub
        )
        counters = result.counters
        assert counters.subtrees_pruned_emax + counters.variants_dropped > 0
        assert counters.leaf_orbits < 33  # full mode visits all 33 orbits

    @pytest.mark.parametrize("mode", ["full", "bound"])
    def test_block_calls_sum_to_the_counters(self, mode, monkeypatch):
        # each expanded block tests all its candidates in one canonicity
        # call and grows its canonical children, with every surviving
        # variant, in as few scatters as the block cap allows: the calls'
        # sizes sum to the work counters, and full mode scatters less often
        # than one prefix at a time would
        from repro.placements import exact_search
        from repro.placements.symmetry import AutomorphismGroup

        prefixes = _prefixes_with_canonical_children(Torus(4, 2), 4)
        pairs, candidates = [], []
        kernel = exact_search.odr_edge_loads_add_delta
        canonicity = AutomorphismGroup.canonicity

        def counted_kernel(torus, loads, kept, added):
            pairs.append(2 * kept.shape[-2] * math.prod(added.shape[:-1]))
            return kernel(torus, loads, kept, added)

        def counted_canonicity(group, node_ids):
            candidates.append(math.prod(np.shape(node_ids)[:-1]))
            return canonicity(group, node_ids)

        monkeypatch.setattr(
            exact_search, "odr_edge_loads_add_delta", counted_kernel
        )
        monkeypatch.setattr(
            AutomorphismGroup, "canonicity", counted_canonicity
        )
        result = exact_global_minimum(Torus(4, 2), 4, mode=mode)
        assert sum(pairs) == result.counters.pair_updates
        assert sum(candidates) == result.counters.canonicity_checks
        if mode == "full":
            assert len(pairs) < prefixes


def _prefixes_with_canonical_children(torus, size):
    """Canonical prefixes (the empty one too) that have a canonical child,
    counted by brute force over all sorted node sets."""
    import itertools

    group = automorphism_group(torus)
    count = 0
    for m in range(size):
        for ids in itertools.combinations(range(torus.num_nodes), m):
            if m and not group.canonicity(ids)[0]:
                continue
            lower = ids[-1] + 1 if ids else 0
            if any(
                group.canonicity(ids + (node,))[0]
                for node in range(lower, torus.num_nodes - (size - m) + 1)
            ):
                count += 1
    return count


#: the most minor page faults per T_6^2 certify over three allocator
#: histories, then the traced peak of one, in a fresh interpreter that
#: imports only the exact search.  Each history first holds other heap
#: blocks (ten of 16 KiB, three of 1 MiB, one of 4 MiB), then certifies
#: T_4^2, T_5^2 and one warm-up, then 20 measured runs.  The module's cap
#: reads about 20-360 faults in its worst history, by the directory it
#: runs from, and a 1.4 MB peak.  Twice the cap faults about 1,040-1,230
#: times per run in its worst history, once its scratch arrays outgrow the
#: heap the allocator reuses; a cap that never splits T_6^2's blocks
#: faults about 2,040-2,060 times and peaks at about 8 MB.  The fault
#: bound sits between the two.
_FAULTS_AND_PEAK = """
import resource
import tracemalloc
from repro.placements.exact_search import (
    exact_global_minimum,
    screen_initial_upper_bound,
)
from repro.torus.topology import Torus
def certify(k):
    torus = Torus(k, 2)
    upper, _ = screen_initial_upper_bound(torus, k)
    exact_global_minimum(torus, k, initial_upper_bound=upper, progress=False)
worst = 0.0
for held in ([16 << 10] * 10, [1 << 20] * 3, [4 << 20]):
    hold = [bytearray(size) for size in held]
    for k in (4, 5, 6):
        certify(k)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        certify(6)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    worst = max(worst, faults / 20)
tracemalloc.start()
certify(6)
print(worst, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts minor page faults against glibc's mmap threshold",
)
def test_block_cap_bounds_faults_and_peak():
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_AND_PEAK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    faults, peak = map(float, proc.stdout.split())
    assert faults < 600
    assert peak < 4e6


class TestParallel:
    def test_parallel_matches_serial_full(self, full_4_2):
        result = exact_global_minimum(Torus(4, 2), 4, mode="full", processes=2)
        assert result.minimum_emax == full_4_2.minimum_emax
        assert result.num_optimal == full_4_2.num_optimal
        assert result.emax_histogram == full_4_2.emax_histogram

    @pytest.mark.parametrize("k", [5, 6])
    def test_decomposed_runs_count_the_same_work(self, k, tmp_path):
        # a rung's bound never moves, so pruning does not depend on which
        # worker finishes first, and a subtree root's prefix replay is not
        # counted again: every decomposition does the serial run's work
        torus = Torus(k, 2)
        serial = exact_global_minimum(torus, k)
        runs = [
            exact_global_minimum(torus, k, processes=2),
            exact_global_minimum(torus, k, processes=2),
            exact_global_minimum(
                torus, k, checkpoint=str(tmp_path / "serial.jsonl")
            ),
        ]
        for run in runs:
            assert run.counters == serial.counters
            assert run.rungs == serial.rungs

    def test_parallel_matches_serial_bound(self):
        torus = Torus(5, 2)
        serial = exact_global_minimum(torus, 5, mode="bound")
        parallel = exact_global_minimum(torus, 5, mode="bound", processes=2)
        assert parallel.minimum_emax == serial.minimum_emax
        assert parallel.num_optimal == serial.num_optimal


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(3, 2), 3, mode="fast")

    def test_bad_size(self):
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(3, 2), 0)
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(3, 2), 10)

    def test_space_too_large(self):
        with pytest.raises(InvalidParameterError):
            exact_global_minimum(Torus(8, 2), 20)

    def test_tiny_size_works(self):
        # size 1: every node is one orbit of the transitive group
        result = exact_global_minimum(Torus(3, 2), 1, mode="full")
        assert result.minimum_emax == 0.0
        assert result.num_optimal == 9


class TestJournalRecords:
    def test_retired_counter_in_old_journal_is_ignored(self):
        # journals written before the separator prune was removed carry
        # its (always zero) counter, and journals written before the orbit
        # total was removed carry it beside the counters; resuming from
        # them must still merge
        from repro.placements.exact_search import (
            SearchCounters,
            _decode_partial,
            _encode_partial,
        )

        counters = dict.fromkeys(SearchCounters.__dataclass_fields__, 1)
        record = _encode_partial(
            {
                "best_value": 2.0,
                "best_image_ids": None,
                "histogram": {2.0: 3},
                "counters": counters,
            }
        )
        current = _decode_partial(record)
        record["counters"]["subtrees_pruned_separator"] = 0
        record["orbit_total"] = 3
        assert _decode_partial(record) == current
        assert current["counters"] == counters
