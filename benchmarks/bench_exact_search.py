"""Benchmark the exact-search engine against the brute-force catalog.

Three runs of the same certification problem (all ``C(16, 4)`` placements
on ``T_4^2``) trace the ISSUE-3 speed-up story:

* **brute force** — ``catalog.global_minimum_emax``: one full
  ``O(|P|^2)`` evaluation per candidate, 1820 total;
* **symmetry only** — ``exact_global_minimum(mode="full")``: canonical
  orbit enumeration with incremental loads, zero full evaluations, exact
  histogram;
* **symmetry + B&B** — ``exact_global_minimum(mode="bound")``: adds
  monotone-``E_max`` pruning, exact minimum and count.

All three must agree bit-for-bit; the engines must perform at least 20x
fewer full placement evaluations than the brute force (they perform
none).  The deterministic work counts are pinned in
``benchmarks/BENCH_exp22.json`` — timings vary by machine, counts must
not.
"""

import json
from pathlib import Path

import pytest

from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus

BASELINE_PATH = Path(__file__).parent / "BENCH_exp22.json"


def _counts(result) -> dict:
    counters = result.counters
    return {
        "minimum_emax": result.minimum_emax,
        "num_placements": result.num_placements,
        "num_optimal": result.num_optimal,
        "full_evaluations": counters.full_evaluations,
        "leaf_orbits": counters.leaf_orbits,
        "variant_evaluations": counters.variant_evaluations,
        "pair_updates": counters.pair_updates,
        "subtrees_pruned_emax": counters.subtrees_pruned_emax,
        "variants_dropped": counters.variants_dropped,
    }


@pytest.mark.benchmark(group="exact-search-T4")
def test_brute_force_catalog(benchmark):
    catalog = benchmark(global_minimum_emax, Torus(4, 2), 4)
    assert catalog.minimum_emax == 2.0
    assert catalog.num_optimal == 292


@pytest.mark.benchmark(group="exact-search-T4")
def test_symmetry_only(benchmark, capsys):
    torus = Torus(4, 2)
    catalog = global_minimum_emax(torus, 4)
    result = benchmark(exact_global_minimum, torus, 4, mode="full")
    assert result.minimum_emax == catalog.minimum_emax
    assert result.num_optimal == catalog.num_optimal
    assert result.emax_histogram == catalog.emax_histogram
    brute_evals = catalog.num_placements
    assert result.counters.full_evaluations * 20 <= brute_evals
    with capsys.disabled():
        print(
            f"\nsymmetry-only: {brute_evals} brute-force full evaluations -> "
            f"{result.counters.full_evaluations} "
            f"({result.counters.leaf_orbits} orbits, "
            f"{result.counters.variant_evaluations} incremental leaf variants)"
        )


@pytest.mark.benchmark(group="exact-search-T4")
def test_symmetry_and_branch_and_bound(benchmark, capsys):
    torus = Torus(4, 2)
    catalog = global_minimum_emax(torus, 4)
    ub = float(odr_edge_loads(linear_placement(torus)).max())

    result = benchmark(
        exact_global_minimum, torus, 4, mode="bound", initial_upper_bound=ub
    )
    assert result.minimum_emax == catalog.minimum_emax
    assert result.num_optimal == catalog.num_optimal
    # the acceptance ratio: >= 20x fewer full placement evaluations
    assert result.counters.full_evaluations * 20 <= catalog.num_placements
    with capsys.disabled():
        print(
            f"\nsymmetry+B&B: {catalog.num_placements} brute-force full "
            f"evaluations -> {result.counters.full_evaluations} "
            f"({result.counters.leaf_orbits} surviving orbits, "
            f"{result.counters.subtrees_pruned_emax} subtrees pruned, "
            f"{result.counters.variants_dropped} variants dropped)"
        )


@pytest.mark.benchmark(group="exact-search-T5")
def test_t5_certification(benchmark):
    torus = Torus(5, 2)
    ub = float(odr_edge_loads(linear_placement(torus)).max())
    result = benchmark(
        exact_global_minimum, torus, 5, mode="bound", initial_upper_bound=ub
    )
    assert result.minimum_emax == 2.0
    assert result.num_optimal == 1545


@pytest.mark.benchmark(group="exact-search-T6")
def test_t6_certification(benchmark):
    # the k = 6 discovery: 24 even-sublattice placements beat the linear one
    torus = Torus(6, 2)
    ub = float(odr_edge_loads(linear_placement(torus)).max())
    result = benchmark.pedantic(
        lambda: exact_global_minimum(
            torus, 6, mode="bound", initial_upper_bound=ub
        ),
        rounds=1,
        iterations=1,
    )
    assert result.minimum_emax == 2.0
    assert result.num_optimal == 24


def test_counts_match_committed_baseline(capsys):
    """The deterministic work counts pinned in BENCH_exp22.json."""
    measured = {
        "brute_force_T4": {"full_evaluations": 1820},
        "symmetry_only_T4": _counts(
            exact_global_minimum(Torus(4, 2), 4, mode="full")
        ),
    }
    for k in (4, 5, 6):
        torus = Torus(k, 2)
        ub = float(odr_edge_loads(linear_placement(torus)).max())
        measured[f"symmetry_bnb_T{k}"] = _counts(
            exact_global_minimum(
                torus, k, mode="bound", initial_upper_bound=ub
            )
        )
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    assert measured == baseline["counts"], (
        "deterministic search counts drifted from benchmarks/BENCH_exp22.json"
        " — regenerate the baseline if the change is intended"
    )
    with capsys.disabled():
        print("\n" + json.dumps(measured, indent=2))
