"""Reports, journals, traces and counters do not depend on the hash seed.

``repro certify`` journals each completed work unit (``--checkpoint``),
and both it and ``repro experiments`` write a trace (``--trace``).
``--resume`` and the trace drills assume that two runs of one command
write the same records in the same order.  ``set`` iteration order is
salted per process by ``PYTHONHASHSEED``, so a set's order that leaks
into a report, a journal or a trace shows only across processes,
whichever function the set lives in.

Each case runs one command in two child processes, under two hash seeds
set explicitly (a ``PYTHONHASHSEED`` pinned in the parent environment
cannot hide a difference), and compares what they wrote.  The runs are
serial, because a parallel journal is written in completion order.
Full-mode certify, the exact search without pruning, is not run: its
journal goes through the same executor path as bound mode's.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

from repro.obs import canonical_form, read_trace

SRC = Path(__file__).resolve().parents[2] / "src"
HASH_SEEDS = ("1", "2")


#: the experiment report's last section, the one that holds timings.
_SUITE_TIMING = "### Suite timing"


class _Run(NamedTuple):
    stdout: str
    journal: Path
    trace: Path


def _run_under_each_seed(
    tmp_path: Path, *argv: str, checkpoint: bool
) -> list[_Run]:
    """``python -m repro *argv [--checkpoint J] --trace T``, once per seed.

    The two children run at the same time, each in its own directory.
    """
    python_path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    started = []
    for seed in HASH_SEEDS:
        run_dir = tmp_path / f"hashseed{seed}"
        run_dir.mkdir()
        journal, trace = run_dir / "journal.jsonl", run_dir / "trace.jsonl"
        journal_args = ["--checkpoint", str(journal)] if checkpoint else []
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", *argv, *journal_args,
                "--trace", str(trace),
            ],
            cwd=run_dir,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=python_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        started.append((proc, journal, trace))
    runs = []
    try:
        for proc, journal, trace in started:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr[-2000:]
            runs.append(_Run(stdout, journal, trace))
    finally:
        for proc, _, _ in started:
            proc.kill()  # no-op on a child that has exited
            proc.wait()
    return runs


def _final_counters(records: list[dict[str, Any]]) -> dict[str, float]:
    snapshots = [r for r in records if r.get("kind") == "metrics"]
    return snapshots[-1]["values"]["counters"]


def _span_order(records: list[dict[str, Any]]) -> list[Any]:
    """Each span's timing-free form, in the order the run wrote them.

    :func:`canonical_form` sorts siblings, so it cannot see a serial run
    that does its work units in another order.
    """
    return [canonical_form([r]) for r in records if r.get("kind") == "span"]


def _assert_same_trace(first: Path, second: Path) -> None:
    first_records, second_records = read_trace(first), read_trace(second)
    assert canonical_form(first_records) == canonical_form(second_records)
    assert _span_order(first_records) == _span_order(second_records)
    assert _final_counters(first_records) == _final_counters(second_records)


class TestHashSeedDeterminism:
    def test_experiments_report_and_trace(self, tmp_path):
        first, second = _run_under_each_seed(
            tmp_path, "experiments", "--quick", checkpoint=False
        )
        # every experiment's findings and tables; the timing table differs
        report = first.stdout.split(_SUITE_TIMING)[0]
        assert _SUITE_TIMING in first.stdout and "23/23" in report
        assert second.stdout.split(_SUITE_TIMING)[0] == report
        _assert_same_trace(first.trace, second.trace)

    def test_certify_journal_stdout_and_trace(self, tmp_path):
        first, second = _run_under_each_seed(
            tmp_path, "certify", "--k", "5", "--d", "2", checkpoint=True
        )
        # fingerprint header, task order and every rung's partial results
        assert first.journal.read_bytes() == second.journal.read_bytes()
        assert first.stdout == second.stdout
        _assert_same_trace(first.trace, second.trace)
