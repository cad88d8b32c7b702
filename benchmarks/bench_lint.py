"""Benchmark the semantic lint engine and pin its deterministic facts.

Two kinds of checks, mirroring ``bench_engines.py``'s split:

* **throughput** (informational, machine-dependent) — wall-clock of a
  whole-``src`` lint run and of a synthetic corpus; recorded in
  ``benchmarks/BENCH_lint.json`` as ``files_per_sec`` for trend-spotting
  but never asserted;
* **exactness pins** (asserted live against the committed baseline) —
  the rule catalogue, the self-lint cleanliness of ``src``, and the
  exact per-code finding counts on a deterministic synthetic corpus.
  The corpus exercises the resolver (the imported ``deque`` default,
  RL007), so a regression in it shifts a pinned count.

CI runs this file as part of the bench-smoke job with one quick round:
the pins always execute, the timing stats are not interpreted.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.devtools.lint import all_rules, lint_paths

BASELINE = pathlib.Path(__file__).with_name("BENCH_lint.json")
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: synthetic corpus size — large enough that per-file noise averages
#: out, small enough that the smoke run stays in single-digit seconds.
CORPUS_FILES = 24

#: one synthetic module; every violation below is pinned in the
#: baseline's ``per_file`` map (the linter must find exactly these).
_CORPUS_TEMPLATE = '''\
"""Synthetic lint workload #{index}."""

import os
import sys
from collections import deque


def record_listing(journal, task_id, root):
    acc = []
    for name in set(os.listdir(root)):
        acc.append(name)
    journal.record(task_id, acc)


def open_span(tracer, n):
    span = tracer.span("work_{index}", n=n)
    return span


def stage(queue=deque()):
    return queue
'''


def _expected_per_file() -> dict[str, int]:
    """Per-code findings each synthetic module must produce."""
    return {
        "RL006": 1,  # `sys` unused
        "RL007": 1,  # deque() default
        "RL017": 1,  # f-string-derived span name "work_{index}"
    }


def _write_corpus(root: pathlib.Path) -> pathlib.Path:
    pkg = root / "repro" / "load"
    pkg.mkdir(parents=True, exist_ok=True)
    for index in range(CORPUS_FILES):
        target = pkg / f"synthetic_{index:03d}.py"
        target.write_text(
            _CORPUS_TEMPLATE.format(index=index), encoding="utf-8"
        )
    return root


@pytest.fixture(scope="module")
def baseline() -> dict:
    return json.loads(BASELINE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> pathlib.Path:
    return _write_corpus(tmp_path_factory.mktemp("lint_corpus"))


# ---------------------------------------------------------------- pins


def test_rule_catalogue_pinned(baseline):
    codes = [rule.code for rule in all_rules()]
    assert codes == baseline["rules"]


def test_self_lint_is_clean(baseline):
    report = lint_paths([SRC])
    assert len(report.findings) == baseline["self_lint"]["findings"] == 0
    # every file on disk, so a runner that skips one fails here
    assert report.files_scanned == len(list(SRC.rglob("*.py")))


def test_corpus_counts_pinned(baseline, corpus):
    report = lint_paths([corpus])
    assert report.files_scanned == CORPUS_FILES
    expected_total = {
        code: count * CORPUS_FILES
        for code, count in baseline["corpus"]["per_file"].items()
    }
    assert report.counts == expected_total


def test_corpus_matches_inline_expectation(baseline):
    # the committed baseline and this file must agree — a drift in either
    # is a review-visible diff, not a silent re-pin.
    assert baseline["corpus"]["per_file"] == {
        code: count
        for code, count in _expected_per_file().items()
    }
    assert baseline["corpus"]["files"] == CORPUS_FILES


# ---------------------------------------------------------- throughput


@pytest.mark.benchmark(group="lint")
def test_lint_src_throughput(benchmark):
    report = benchmark(lambda: lint_paths([SRC]))
    assert len(report.findings) == 0


@pytest.mark.benchmark(group="lint")
def test_lint_corpus_throughput(benchmark, corpus):
    report = benchmark(lambda: lint_paths([corpus]))
    assert report.files_scanned == CORPUS_FILES
