"""End-to-end resilience drills: chaos runs must be bit-identical.

The contract under test is the contrapositive documented in
:mod:`repro.exec.chaos`: fault injection happens only inside pool
workers, retries re-roll the schedule, and the serial fallback is always
fault-free — so a run surviving injected crashes and hangs must produce
*exactly* the fault-free answer, not an approximation of it.  These
drills exercise every wired call site: the exact-search certifier and
the catalog sweep, plus mid-run kill + resume through the checkpoint
journal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SearchError
from repro.exec import (
    ChaosPolicy,
    ExecPolicy,
    clear_reports,
    recent_reports,
    using_exec_policy,
)
from repro.load.odr_loads import odr_edge_loads
from repro.placements.catalog import global_minimum_emax
from repro.placements.exact_search import exact_global_minimum
from repro.placements.linear import linear_placement
from repro.torus.topology import Torus

#: the ISSUE acceptance drill: ~20% of worker executions crash.
CRASHY = ExecPolicy(
    retries=3,
    backoff_base=0.001,
    backoff_max=0.01,
    heartbeat=0.02,
    chaos=ChaosPolicy(seed=7, crash_fraction=0.2),
)

#: hang drill: stuck workers reaped by the deadline watchdog.
HANGY = ExecPolicy(
    retries=2,
    task_timeout=0.5,
    backoff_base=0.001,
    backoff_max=0.01,
    heartbeat=0.02,
    chaos=ChaosPolicy(seed=13, hang_fraction=0.3, hang_seconds=60.0),
)

#: every worker execution crashes and nothing falls back: the fan-out fails.
EXHAUSTED = ExecPolicy(
    retries=0,
    backoff_base=0.001,
    heartbeat=0.02,
    fallback_serial=False,
    chaos=ChaosPolicy(seed=7, crash_fraction=1.0),
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


def _catalog_key(result):
    """Everything that must be bit-identical across catalog sweeps."""
    return (
        result.minimum_emax,
        result.num_optimal,
        result.emax_histogram,
        result.example_optimal.node_ids.tolist(),
    )


class TestCertifyUnderChaos:
    def test_crash_chaos_is_bit_identical_on_t5_2(self):
        torus = Torus(5, 2)
        serial = exact_global_minimum(torus, 5, mode="bound")
        clear_reports()
        with using_exec_policy(CRASHY):
            chaotic = exact_global_minimum(torus, 5, mode="bound", processes=2)
        assert _certify_key(chaotic) == _certify_key(serial)
        # the drill must actually have exercised the pool machinery
        report = recent_reports()[-1]
        assert report.label.startswith("exact-search")
        assert report.completed == report.tasks

    def test_full_mode_histogram_survives_chaos_on_t4_2(self):
        torus = Torus(4, 2)
        serial = exact_global_minimum(torus, 4, mode="full")
        with using_exec_policy(CRASHY):
            chaotic = exact_global_minimum(torus, 4, mode="full", processes=2)
        assert _certify_key(chaotic) == _certify_key(serial)
        assert chaotic.emax_histogram == serial.emax_histogram


class TestCatalogUnderChaos:
    def test_catalog_sweep_is_bit_identical_on_t4_2(self):
        torus = Torus(4, 2)
        serial = global_minimum_emax(torus, 4)
        with using_exec_policy(CRASHY):
            chaotic = global_minimum_emax(torus, 4, processes=2)
        assert chaotic.minimum_emax == serial.minimum_emax
        assert chaotic.num_optimal == serial.num_optimal
        assert chaotic.emax_histogram == serial.emax_histogram
        assert np.array_equal(
            chaotic.example_optimal.coords(), serial.example_optimal.coords()
        )

    def test_hang_chaos_is_bit_identical_on_t4_2(self):
        torus = Torus(4, 2)
        serial = global_minimum_emax(torus, 4)
        clear_reports()
        with using_exec_policy(HANGY):
            chaotic = global_minimum_emax(torus, 4, processes=2)
        assert _catalog_key(chaotic) == _catalog_key(serial)
        report = recent_reports()[-1]
        assert report.label.startswith("catalog[")
        assert report.timeouts > 0  # the watchdog reaped hung spans

    def test_catalog_checkpoint_resume_matches(self, tmp_path):
        torus = Torus(4, 2)
        serial = global_minimum_emax(torus, 4)
        path = tmp_path / "catalog.jsonl"
        full = global_minimum_emax(torus, 4, processes=2, checkpoint=str(path))
        assert full.emax_histogram == serial.emax_histogram
        # truncate the journal to simulate a mid-run kill (torn last line)
        lines = path.read_text().splitlines()
        keep = 1 + max(1, (len(lines) - 1) // 2)
        path.write_text(
            "\n".join(lines[:keep]) + '\n{"kind": "task", "id": "span-tor'
        )
        clear_reports()
        resumed = global_minimum_emax(
            torus, 4, processes=2, checkpoint=str(path), resume=True
        )
        assert resumed.minimum_emax == serial.minimum_emax
        assert resumed.num_optimal == serial.num_optimal
        assert resumed.emax_histogram == serial.emax_histogram
        report = recent_reports()[-1]
        assert report.resumed == keep - 1
        assert report.resumed + report.completed == report.tasks


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
        clear_reports()
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
        report = recent_reports()[-1]
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
        clear_reports()
        resumed = exact_global_minimum(
            torus, 5, mode="bound", checkpoint=str(path), resume=True
        )
        assert _certify_key(resumed) == _certify_key(plain)
        report = recent_reports()[-1]
        assert report.completed == 0  # everything came from the journal
        assert report.resumed == report.tasks


class TestWrappedErrors:
    def test_catalog_failure_names_spans_and_workers(self):
        with using_exec_policy(EXHAUSTED):
            with pytest.raises(SearchError, match=r"spans.*workers"):
                global_minimum_emax(Torus(4, 2), 4, processes=2)

    def test_certify_failure_names_roots_and_workers(self):
        with using_exec_policy(EXHAUSTED):
            with pytest.raises(SearchError, match=r"roots.*workers"):
                exact_global_minimum(Torus(4, 2), 4, processes=2)
