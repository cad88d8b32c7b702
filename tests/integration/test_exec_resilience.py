"""End-to-end resilience drills: chaos runs must be bit-identical.

The contract under test is the contrapositive documented in
:mod:`repro.exec.chaos`: fault injection happens only inside pool
workers, retries re-roll the schedule, and the serial fallback is always
fault-free — so a run surviving injected crashes and hangs must produce
*exactly* the fault-free answer, not an approximation of it.  These
drills exercise the one wired call site, the exact-search certifier:
crashed and hung workers, a run whose every pool attempt crashes,
mid-run kill + resume through the checkpoint journal, and a fan-out that
fails beyond recovery.  Each drill reads the executors' reports from the
result's ``reports``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.errors import ExecutionError, SearchError
from repro.exec import ChaosPolicy, ExecPolicy, ResilientExecutor
from repro.load.odr_loads import odr_edge_loads
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus

#: the crash drill: ~20% of worker executions crash.
CRASHY = ExecPolicy(retries=3, chaos=ChaosPolicy(seed=7, crash_fraction=0.2))

#: hang drill: stuck workers reaped by the deadline watchdog; the drill
#: re-seeds it with :func:`_hang_policy` so that some task does hang.
HANGY = ExecPolicy(
    retries=2,
    task_timeout=0.5,
    chaos=ChaosPolicy(seed=13, hang_fraction=0.3),
)

#: every worker execution crashes: every task falls back to serial.
ALL_CRASH = ExecPolicy(
    retries=0, chaos=ChaosPolicy(seed=7, crash_fraction=1.0)
)


def _certify_key(result):
    """Everything that must be bit-identical across executions."""
    return (
        result.minimum_emax,
        result.num_placements,
        result.num_optimal,
        result.num_orbits,
        sorted(map(tuple, result.example_optimal.coords().tolist())),
    )


def _assert_chaos_struck(reports):
    """The drill's runs retried a crashed task and rebuilt a broken pool.

    Without this a change of task ids or split depth that moves the
    chaos seed off every task would pass as a fault-free run.
    """
    assert sum(report.retries for report in reports) >= 1
    assert sum(report.broken_pools for report in reports) >= 1


def _root_task_ids(torus, size, tmp_path):
    """Task ids of a full-mode search's subtree roots, read from its journal."""
    path = tmp_path / "roots.jsonl"
    exact_global_minimum(torus, size, mode="full", checkpoint=str(path))
    lines = path.read_text().splitlines()[1:]
    return [json.loads(line)["id"] for line in lines]


def _hang_policy(task_ids):
    """:data:`HANGY` with the first seed from its own that hangs a task.

    Picking the seed from the predicted schedule keeps the drill on its
    fault when task ids or the split depth change.
    """
    for seed in itertools.count(HANGY.chaos.seed):
        chaos = dataclasses.replace(HANGY.chaos, seed=seed)
        if any(chaos.decide(task_id, 0) == "hang" for task_id in task_ids):
            return dataclasses.replace(HANGY, chaos=chaos)


def _hung_attempts(policy, task_ids):
    """Pool attempts the chaos schedule hangs, with no crash in play.

    A task's attempts run in order until one does not hang, and at most
    ``retries + 1`` of them run in the pool.
    """
    hung = 0
    for task_id in task_ids:
        for attempt in range(policy.retries + 1):
            if policy.chaos.decide(task_id, attempt) != "hang":
                break
            hung += 1
    return hung


class TestCertifyUnderChaos:
    def test_crash_chaos_is_bit_identical_on_t5_2(self):
        torus = Torus(5, 2)
        serial = exact_global_minimum(torus, 5, mode="bound")
        chaotic = exact_global_minimum(
            torus, 5, mode="bound", processes=2, policy=CRASHY
        )
        assert _certify_key(chaotic) == _certify_key(serial)
        # the drill must actually have exercised the pool machinery
        report = chaotic.reports[-1]
        assert report.label.startswith("exact-search")
        assert report.completed == report.tasks
        _assert_chaos_struck(chaotic.reports)

    def test_full_mode_histogram_survives_chaos_on_t4_2(self):
        torus = Torus(4, 2)
        serial = exact_global_minimum(torus, 4, mode="full")
        chaotic = exact_global_minimum(
            torus, 4, mode="full", processes=2, policy=CRASHY
        )
        assert _certify_key(chaotic) == _certify_key(serial)
        assert chaotic.emax_histogram == serial.emax_histogram
        _assert_chaos_struck(chaotic.reports)

    def test_all_crash_chaos_falls_back_to_the_serial_answer_on_t4_2(self):
        torus = Torus(4, 2)
        serial = exact_global_minimum(torus, 4, mode="full")
        chaotic = exact_global_minimum(
            torus, 4, mode="full", processes=2, policy=ALL_CRASH
        )
        assert _certify_key(chaotic) == _certify_key(serial)
        assert chaotic.emax_histogram == serial.emax_histogram
        (report,) = chaotic.reports
        assert report.tasks > 0
        assert report.fallbacks == report.completed == report.tasks
        assert report.broken_pools >= 1

    def test_hang_chaos_is_bit_identical_on_t4_2(self, tmp_path):
        torus = Torus(4, 2)
        serial = exact_global_minimum(torus, 4, mode="full")
        task_ids = _root_task_ids(torus, 4, tmp_path)
        policy = _hang_policy(task_ids)
        chaotic = exact_global_minimum(
            torus, 4, mode="full", processes=2, policy=policy
        )
        assert _certify_key(chaotic) == _certify_key(serial)
        assert chaotic.emax_histogram == serial.emax_histogram
        report = chaotic.reports[-1]
        assert report.label.startswith("exact-search")
        # a task's deadline runs from its hand-off to a free worker, so
        # the watchdog charges each hung attempt once and nothing else
        assert report.timeouts == _hung_attempts(policy, task_ids) > 0
        assert report.fallbacks == 0


class TestCertifyKillResume:
    def test_t6_2_recertifies_after_mid_run_kill(self, tmp_path):
        """The ISSUE acceptance drill: kill mid-run, resume, re-certify.

        T_6^2 at the linear size must come back with the exact certified
        answer (E_max 2, 24 optimal placements) and the resumed run must
        skip every journaled subtree root instead of re-evaluating it.
        """
        torus = Torus(6, 2)
        upper = float(odr_edge_loads(linear_placement(torus)).max())
        path = tmp_path / "certify.jsonl"
        full = exact_global_minimum(
            torus,
            6,
            mode="bound",
            processes=2,
            initial_upper_bound=upper,
            checkpoint=str(path),
        )
        assert full.minimum_emax == 2.0
        assert full.num_optimal == 24
        # simulate a kill partway through: drop the tail of the journal
        # and leave a torn final line exactly as a dying writer would.
        lines = path.read_text().splitlines()
        assert len(lines) > 3  # header + enough completed roots to split
        keep = 1 + (len(lines) - 1) // 2
        path.write_text(
            "\n".join(lines[:keep]) + '\n{"kind": "task", "id": "root-1'
        )
        resumed = exact_global_minimum(
            torus,
            6,
            mode="bound",
            processes=2,
            initial_upper_bound=upper,
            checkpoint=str(path),
            resume=True,
        )
        assert resumed.minimum_emax == 2.0
        assert resumed.num_optimal == 24
        assert _certify_key(resumed) == _certify_key(full)
        report = resumed.reports[-1]
        assert report.resumed == keep - 1  # journaled roots were skipped
        assert report.resumed + report.completed == report.tasks

    def test_serial_checkpoint_forces_resumable_decomposition(self, tmp_path):
        # even a serial run decomposes into journaled subtree roots when a
        # checkpoint is requested, so it can be resumed later (possibly in
        # parallel).
        torus = Torus(5, 2)
        path = tmp_path / "serial.jsonl"
        serial = exact_global_minimum(
            torus, 5, mode="bound", checkpoint=str(path)
        )
        plain = exact_global_minimum(torus, 5, mode="bound")
        assert _certify_key(serial) == _certify_key(plain)
        resumed = exact_global_minimum(
            torus, 5, mode="bound", checkpoint=str(path), resume=True
        )
        assert _certify_key(resumed) == _certify_key(plain)
        report = resumed.reports[-1]
        assert report.completed == 0  # everything came from the journal
        assert report.resumed == report.tasks


#: the first two lines of a T_5^2 n=5 journal written before the ladder,
#: when the fingerprint named the screen's pruning seed and task ids
#: carried no rung.
_PRE_LADDER_JOURNAL = (
    '{"kind": "header", "version": 1, "fingerprint": {"workload": '
    '"exact-search", "k": 5, "d": 2, "size": 5, "mode": "bound", '
    '"upper": 2.0, "split_depth": 3}}\n'
    '{"kind": "task", "id": "root-0.1.2", "result": {"best_value": '
    'Infinity, "best_image_ids": null, "histogram": [], "orbit_total": 0, '
    '"counters": {"canonicity_checks": 21, "canonical_nodes": 7, '
    '"leaf_orbits": 0, "variant_evaluations": 0, "pair_updates": 96, '
    '"full_evaluations": 0, "subtrees_pruned_emax": 7, '
    '"variants_dropped": 14}}}\n'
)


class TestCertifyLadderResume:
    def test_t5_2_resumes_inside_its_second_rung(self, tmp_path):
        """Kill inside rung 2 of a two-rung ladder, resume, re-certify.

        Eq. 6 puts T_5^2 n=5 at rung 1, which is refuted; the minimum is
        2.  The resumed run must return the identical result and work
        counters, skipping every journaled root of both rungs.
        """
        torus = Torus(5, 2)
        path = tmp_path / "ladder.jsonl"
        full = exact_global_minimum(
            torus, 5, processes=2, checkpoint=str(path)
        )
        assert [upper for upper, _ in full.rungs] == [1.0, 2.0]
        lines = path.read_text().splitlines()
        ids = [json.loads(line)["id"] for line in lines[1:]]
        first = sum(task.startswith("rung1/") for task in ids)
        second = sum(task.startswith("rung2/") for task in ids)
        assert first >= 1 and second > 2 and first + second == len(ids)
        assert ids[:first] == [t for t in ids if t.startswith("rung1/")]
        # drop half of rung 2's roots and leave a torn final line
        keep = 1 + first + second // 2
        path.write_text(
            "\n".join(lines[:keep]) + '\n{"kind": "task", "id": "rung2/ro'
        )
        resumed = exact_global_minimum(
            torus, 5, processes=2, checkpoint=str(path), resume=True
        )
        assert _certify_key(resumed) == _certify_key(full)
        assert resumed.counters == full.counters
        assert resumed.rungs == full.rungs
        refuted, certified = resumed.reports
        # no journaled root is searched again
        assert (refuted.resumed, refuted.completed) == (first, 0)
        assert certified.resumed == second // 2
        assert certified.completed == second - second // 2

    def test_pre_ladder_journal_is_refused(self, tmp_path):
        path = tmp_path / "pre-ladder.jsonl"
        path.write_text(_PRE_LADDER_JOURNAL)
        with pytest.raises(ExecutionError, match="fingerprint"):
            exact_global_minimum(
                Torus(5, 2), 5, processes=2, checkpoint=str(path), resume=True
            )


class TestWrappedErrors:
    def test_certify_failure_names_roots_and_workers(self, monkeypatch):
        def fail(self, tasks):
            raise ExecutionError(f"{self.label}: the pool is gone")

        monkeypatch.setattr(ResilientExecutor, "run", fail)
        with pytest.raises(SearchError, match=r"roots.*workers"):
            exact_global_minimum(Torus(4, 2), 4, processes=2)
