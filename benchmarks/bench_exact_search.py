"""Benchmark the exact-search engine against the brute-force catalog.

Three runs of the same certification problem (all ``C(16, 4)`` placements
on ``T_4^2``) trace the exact search's speed-up story:

* **brute force** — ``catalog.global_minimum_emax``: one full
  ``O(|P|^2)`` evaluation per candidate, 1820 total;
* **symmetry only** — ``exact_global_minimum(mode="full")``: canonical
  orbit enumeration with incrementally grown loads, exact histogram;
* **symmetry + ladder** — ``exact_global_minimum(mode="bound")``: adds
  monotone-``E_max`` pruning at fixed bounds climbed from the paper's
  Eq. 6 lower bound (capped by the linear placement's ``E_max``), exact
  minimum and count.

All three must agree bit-for-bit.  The deterministic work counts of the
two engine runs are pinned in ``benchmarks/BENCH_exp22.json`` and
asserted live here — timings vary by machine, counts must not.  No other
baseline pins ``T_4^2``; ``bench_certify.py`` pins the larger tori.  The
bound-mode case is named ``ladder_T4``, and :data:`RETIRED` keeps the
certified answer of the earlier search that pruned against the linear
seed (``symmetry_bnb_T4``), which the ladder must reproduce.
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

#: (minimum_emax, num_optimal) of the retired pre-ladder bound-mode case.
RETIRED = {"symmetry_bnb_T4": (2.0, 292)}


def _counts(result) -> dict:
    counters = result.counters
    return {
        "minimum_emax": result.minimum_emax,
        "num_placements": result.num_placements,
        "num_optimal": result.num_optimal,
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
    with capsys.disabled():
        print(
            f"\nsymmetry-only: {catalog.num_placements} brute-force full "
            f"evaluations -> {result.counters.leaf_orbits} orbits, "
            f"{result.counters.variant_evaluations} incremental leaf variants"
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
    with capsys.disabled():
        print(
            f"\nsymmetry+B&B: {catalog.num_placements} brute-force full "
            f"evaluations -> {result.counters.leaf_orbits} surviving "
            f"orbits, {result.counters.subtrees_pruned_emax} subtrees "
            f"pruned, {result.counters.variants_dropped} variants dropped"
        )


def test_counts_match_committed_baseline(capsys):
    """The deterministic work counts pinned in BENCH_exp22.json."""
    torus = Torus(4, 2)
    ub = float(odr_edge_loads(linear_placement(torus)).max())
    measured = {
        "symmetry_only_T4": _counts(
            exact_global_minimum(torus, 4, mode="full")
        ),
        "ladder_T4": _counts(
            exact_global_minimum(
                torus, 4, mode="bound", initial_upper_bound=ub
            )
        ),
    }
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    assert measured == baseline["counts"], (
        "deterministic search counts drifted from benchmarks/BENCH_exp22.json"
        " — update the pins in place if the change is intended"
    )
    with capsys.disabled():
        print("\n" + json.dumps(measured, indent=2))


def test_ladder_cases_keep_the_retired_answers():
    counts = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))["counts"]
    for case, answer in RETIRED.items():
        new = counts[case.replace("symmetry_bnb", "ladder")]
        assert (new["minimum_emax"], new["num_optimal"]) == answer, case
