"""Benchmark `repro certify` end to end: wall time of bound-mode certification.

Each case runs what ``repro certify --k K --d 2`` runs serially: the
batched incumbent screen (``screen_initial_upper_bound``) and then the
bound-mode exact search seeded with it.  The exact search grows every
surviving ODR variant of a node in one path-template scatter, so its
wall time is set by the number of expanded nodes, not by hop walks.

Pinned in ``benchmarks/BENCH_certify.json``:

* the certified results and work counts of ``T_5^2`` and ``T_6^2``
  (exact; the ``BENCH_exp22.json`` counts, seeded with the linear
  placement's ``E_max`` instead, are pinned by ``bench_exact_search.py``);
* ``T_6^2`` wall time at most ``max_seconds.T6`` (1 s), asserted live;
* ``T_7^2`` wall time, recorded as the next frontier (informational).

Run with::

    pytest benchmarks/bench_certify.py -q
    python benchmarks/bench_certify.py     # re-measure and rewrite the baseline
"""

import json
import pathlib

from _timing import best_of

from repro.placements.exact_search import (
    exact_global_minimum,
    screen_initial_upper_bound,
)
from repro.torus.topology import Torus

BASELINE = pathlib.Path(__file__).with_name("BENCH_certify.json")

#: case -> (k, timing rounds); size is k (= k^{d-1}, d = 2) throughout.
CASES = {"T5": (5, 3), "T6": (6, 3), "T7": (7, 1)}

#: live wall-time pins (seconds, best of the case's rounds).
MAX_SECONDS = {"T6": 1.0}

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


def certify(k: int):
    """One serial ``repro certify --k k --d 2`` computation."""
    torus = Torus(k, 2)
    upper, _ = screen_initial_upper_bound(torus, k)
    return exact_global_minimum(torus, k, initial_upper_bound=upper, progress=False)


def _record(result) -> dict:
    record = {
        "minimum_emax": result.minimum_emax,
        "num_optimal": result.num_optimal,
    }
    record.update({name: getattr(result.counters, name) for name in COUNTERS})
    return record


def test_t5_t6_counts_match_baseline():
    recorded = json.loads(BASELINE.read_text())["cases"]
    for case in ("T5", "T6"):
        k, _ = CASES[case]
        assert _record(certify(k)) == recorded[case]["counts"], case


def test_t6_within_budget(capsys):
    certify(6)  # warm: group tables, path table, screening plans
    seconds, result = best_of(lambda: certify(6), rounds=CASES["T6"][1])
    with capsys.disabled():
        print(f"\ncertify T_6^2: {seconds:.3f}s (pin <= {MAX_SECONDS['T6']}s)")
    assert result.minimum_emax == 2.0 and result.num_optimal == 24
    assert seconds <= MAX_SECONDS["T6"], (
        f"T_6^2 certification took {seconds:.2f}s, over the "
        f"{MAX_SECONDS['T6']}s pin"
    )


def test_baseline_pins():
    recorded = json.loads(BASELINE.read_text())
    assert recorded["max_seconds"] == MAX_SECONDS
    assert sorted(recorded["cases"]) == sorted(CASES)
    for case, limit in MAX_SECONDS.items():
        assert recorded["cases"][case]["seconds"] <= limit


def write_baseline() -> dict:
    """Measure every case and rewrite the committed baseline."""
    cases = {}
    for case, (k, rounds) in CASES.items():
        certify(k)  # warm
        seconds, result = best_of(lambda: certify(k), rounds=rounds)
        cases[case] = {
            "k": k,
            "size": k,
            "seconds": round(seconds, 3),
            "counts": _record(result),
        }
    baseline = {
        "description": (
            "Serial bound-mode certification as `repro certify --k K --d 2` "
            "runs it (batched incumbent screen, then exact search), best "
            "wall time of warm runs. Counts are exact pins; T6 seconds is "
            "gated by max_seconds; T7 is the recorded next frontier."
        ),
        "max_seconds": MAX_SECONDS,
        "cases": cases,
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
