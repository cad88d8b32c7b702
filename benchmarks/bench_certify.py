"""Benchmark `repro certify` end to end: wall time of bound-mode certification.

Each case runs what ``repro certify --k K --d D --size N`` runs serially:
the candidate screen (``screen_initial_upper_bound``, one block score on
the ODR path table; it matches only ``N = K^{D-1}``) and then the
bound-mode exact search, capped by the screen when it matched.  The
search climbs a ladder of fixed bounds from the paper's Eq. 6 lower
bound, ``ceil((N - 1)/(2D))``, and stops at the first rung that reaches
a placement.  It walks blocks of same-depth prefixes: one canonicity call
per block, and one path-table scatter grows the block's canonical
children with every surviving ODR variant.

Pinned in ``benchmarks/BENCH_certify.json`` and asserted live here:

* the certified results and work counts of all six cases (exact; the
  ``T_4^2`` counts, capped by the linear placement's ``E_max`` instead,
  are pinned by ``bench_exact_search.py``);
* ``T_6^2`` wall time at most ``max_seconds.T6_ladder`` (1 s) and
  ``T_8^2`` wall time at most ``max_seconds.T8_ladder`` (about 3x its
  measured time);
* the ``T_4^3`` ``n = 5`` ladder (``T4x3_ladder``, uncapped: no
  structured family has 5 nodes): with the 48-element point group of
  ``d = 3`` a candidate's canonicity masks take six times the bytes they
  take in ``d = 2``, so its blocks hold a sixth as many candidates.

The ``T_7^2``, ``T_9^2`` and ``T_4^3`` wall times, best of three rounds,
are recorded only.  A change that moves a count updates its pin in
place; the file's git history is the record of its values.  The case
names carry ``_ladder``, and :data:`RETIRED` keeps the certified answers
of the earlier search that pruned against the screen's seed
(``T5``/``T6``/``T7``), which the ladder must reproduce.

Run with::

    pytest benchmarks/bench_certify.py -q
    python benchmarks/bench_certify.py     # re-measure and rewrite the baseline
"""

import json
import pathlib

import pytest
from _timing import best_of, elapsed_seconds

from repro.placements.exact_search import (
    exact_global_minimum,
    screen_initial_upper_bound,
)
from repro.torus.topology import Torus

BASELINE = pathlib.Path(__file__).with_name("BENCH_certify.json")

#: case -> (k, d, size, timing rounds).
CASES = {
    "T5_ladder": (5, 2, 5, 3),
    "T6_ladder": (6, 2, 6, 3),
    "T7_ladder": (7, 2, 7, 3),
    "T8_ladder": (8, 2, 8, 3),
    "T9_ladder": (9, 2, 9, 3),
    "T4x3_ladder": (4, 3, 5, 3),
}

#: live wall-time pins (seconds, best of the case's rounds).
MAX_SECONDS = {"T6_ladder": 1.0, "T8_ladder": 15.0}

#: (minimum_emax, num_optimal) of the retired pre-ladder cases.
RETIRED = {"T5": (2.0, 1545), "T6": (2.0, 24), "T7": (3.0, 48356)}

#: the work counts recorded per case (all deterministic for a serial run).
COUNTERS = (
    "canonicity_checks",
    "canonical_nodes",
    "leaf_orbits",
    "variant_evaluations",
    "pair_updates",
    "subtrees_pruned_emax",
    "variants_dropped",
)


def certify(k: int, d: int = 2, size: int | None = None):
    """One serial ``repro certify --k k --d d --size size`` computation."""
    torus = Torus(k, d)
    size = k ** (d - 1) if size is None else size
    screened = screen_initial_upper_bound(torus, size)
    upper = None if screened is None else screened[0]
    return exact_global_minimum(
        torus, size, initial_upper_bound=upper, progress=False
    )


def _record(result) -> dict:
    record = {
        "minimum_emax": result.minimum_emax,
        "num_optimal": result.num_optimal,
    }
    record.update({name: getattr(result.counters, name) for name in COUNTERS})
    return record


@pytest.mark.parametrize(
    "case", ["T5_ladder", "T6_ladder", "T7_ladder", "T9_ladder"]
)
def test_counts_match_baseline(case):
    # T8_ladder and T4x3_ladder are checked with their budget and ladder
    k, d, size, _ = CASES[case]
    recorded = json.loads(BASELINE.read_text())["cases"][case]
    assert _record(certify(k, d, size)) == recorded["counts"]


def test_t6_within_budget(capsys):
    limit = MAX_SECONDS["T6_ladder"]
    certify(6)  # warm: group tables, path table
    rounds = CASES["T6_ladder"][-1]
    seconds, result = best_of(lambda: certify(6), rounds=rounds)
    with capsys.disabled():
        print(f"\ncertify T_6^2: {seconds:.3f}s (pin <= {limit}s)")
    assert result.minimum_emax == 2.0 and result.num_optimal == 24
    assert seconds <= limit, (
        f"T_6^2 certification took {seconds:.2f}s, over the {limit}s pin"
    )


def test_t8_counts_and_budget(capsys):
    limit = MAX_SECONDS["T8_ladder"]
    seconds, result = elapsed_seconds(lambda: certify(8))
    with capsys.disabled():
        print(f"\ncertify T_8^2: {seconds:.3f}s (pin <= {limit}s)")
    recorded = json.loads(BASELINE.read_text())["cases"]["T8_ladder"]
    assert _record(result) == recorded["counts"]
    assert result.minimum_emax == 3.0 and result.num_optimal == 576
    assert seconds <= limit, (
        f"T_8^2 certification took {seconds:.2f}s, over the {limit}s pin"
    )


def test_t4x3_counts_and_ladder():
    # d = 3: Eq. 6 gives ceil(4/6) = 1; rungs 1 and 2 are refuted
    k, d, size, _ = CASES["T4x3_ladder"]
    result = certify(k, d, size)
    recorded = json.loads(BASELINE.read_text())["cases"]["T4x3_ladder"]
    assert _record(result) == recorded["counts"]
    assert result.rungs == ((1.0, 54), (2.0, 2302), (3.0, 3877))


def test_baseline_pins():
    recorded = json.loads(BASELINE.read_text())
    assert recorded["max_seconds"] == MAX_SECONDS
    assert sorted(recorded["cases"]) == sorted(CASES)
    for case, limit in MAX_SECONDS.items():
        assert recorded["cases"][case]["seconds"] <= limit


def test_ladder_cases_keep_the_retired_answers():
    cases = json.loads(BASELINE.read_text())["cases"]
    for case, answer in RETIRED.items():
        counts = cases[f"{case}_ladder"]["counts"]
        assert (counts["minimum_emax"], counts["num_optimal"]) == answer, case


def write_baseline() -> dict:
    """Measure every case and rewrite the committed baseline."""
    cases = {}
    for case, (k, d, size, rounds) in CASES.items():
        certify(k, d, size)  # warm
        seconds, result = best_of(lambda: certify(k, d, size), rounds=rounds)
        cases[case] = {
            "k": k,
            "d": d,
            "size": size,
            "seconds": round(seconds, 3),
            "counts": _record(result),
        }
    baseline = {
        "description": (
            "Serial bound-mode certification as `repro certify --k K --d D "
            "--size N` runs it (candidate screen, then the exact search's "
            "ladder from Eq. 6, capped by the screen when a structured "
            "family has N nodes), best wall time of warm runs. Counts are "
            "exact pins; T6_ladder and T8_ladder seconds are gated by "
            "max_seconds; T7_ladder, T9_ladder and T4x3_ladder seconds "
            "are recorded only."
        ),
        "max_seconds": MAX_SECONDS,
        "cases": cases,
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
