"""Cross-process trace stitching, end to end.

The acceptance property of the trace analytics engine: a traced
parallel ``repro certify`` stitches its per-worker JSONL files into
*one* logical trace, and — for a chaos-free run — the stitched trace's
canonical form is identical whatever the worker count.  A ``--jobs 4``
T_4² certification must tell exactly the same structural story as the
serial run, down to the merged search counters, with only volatile
attributes (pids, exec-run ids, jobs) and timings differing.
"""

from __future__ import annotations

from repro.cli import main
from repro.obs import (
    build_forest,
    canonical_form,
    critical_path,
    diff_traces,
    load_stitched,
    read_trace,
    stitch_path,
    worker_trace_dir,
)


def _certify(tmp_path, tag, jobs):
    trace = tmp_path / f"{tag}.jsonl"
    checkpoint = tmp_path / f"{tag}.ck.jsonl"
    argv = [
        "certify",
        "--k", "4", "--d", "2",
        "--jobs", str(jobs),
        # a checkpoint forces the subtree decomposition through the
        # executor even serially, so both runs produce exec.task spans
        "--checkpoint", str(checkpoint),
        "--trace", str(trace),
    ]
    assert main(argv) == 0
    return trace


def _counters(records):
    snapshots = [r for r in records if r.get("kind") == "metrics"]
    return snapshots[-1]["values"]["counters"]


class TestStitchedCertify:
    def test_parallel_run_stitches_into_one_logical_trace(
        self, tmp_path, capsys
    ):
        trace = _certify(tmp_path, "par", jobs=4)
        capsys.readouterr()

        workers = worker_trace_dir(trace)
        worker_files = sorted(workers.glob("*.jsonl"))
        assert worker_files, "parallel run must mirror worker traces"

        stitched = stitch_path(trace)
        header = stitched[0]
        assert header["stitched"] is True
        assert header["worker_files"] == len(worker_files)

        # single logical trace: exactly one header, no span left dangling
        assert sum(1 for r in stitched if r.get("kind") == "header") == 1
        roots = build_forest(stitched)
        assert all(not root.orphan for root in roots)

        # the worker files recorded the task bodies...
        body_spans = [
            r
            for path in worker_files
            for r in read_trace(path)
            if r.get("kind") == "span"
        ]
        assert body_spans
        assert {r["name"] for r in body_spans} == {"exec.task.body"}
        # ...and stitching splices every body into its dispatching
        # exec.task, so none survive in the merged trace
        names = {r["name"] for r in stitched if r.get("kind") == "span"}
        assert "exec.task.body" not in names
        assert "exec.task" in names

        # one merged final snapshot carrying the whole run's ledger
        counters = _counters(stitched)
        assert counters["exec.tasks"] > 0
        assert counters["search.pair_updates"] > 0

    def test_stitched_trace_identical_across_worker_counts(
        self, tmp_path, capsys
    ):
        serial = _certify(tmp_path, "serial", jobs=1)
        serial_out = capsys.readouterr().out
        parallel = _certify(tmp_path, "parallel", jobs=4)
        parallel_out = capsys.readouterr().out
        # same certified answer printed for both runs
        assert serial_out == parallel_out

        serial_records = load_stitched(serial)
        parallel_records = load_stitched(parallel)

        assert canonical_form(serial_records) == canonical_form(
            parallel_records
        )

        # the merged deterministic counters agree exactly
        serial_counters = _counters(serial_records)
        parallel_counters = _counters(parallel_records)
        for name in serial_counters:
            if name.startswith("search."):
                assert serial_counters[name] == parallel_counters[name], name

    def test_analytics_run_on_the_stitched_trace(self, tmp_path, capsys):
        trace = _certify(tmp_path, "analyze", jobs=4)
        capsys.readouterr()
        records = load_stitched(trace)

        path = critical_path(records)
        assert path[0]["name"] == "search.certify"
        assert path[0]["fraction_of_root"] == 1.0

        # a stitched trace diffed against itself is empty at tolerance 0
        assert diff_traces(records, records, tolerance=0.0) == []

    def test_trace_cli_subcommands_on_stitched_run(self, tmp_path, capsys):
        trace = _certify(tmp_path, "cli", jobs=4)
        capsys.readouterr()

        assert main(["trace", "critical-path", str(trace)]) == 0
        assert "search.certify" in capsys.readouterr().out

        assert main(["trace", "waterfall", str(trace)]) == 0
        assert "exec.task" in capsys.readouterr().out

        assert main(["trace", "diff", str(trace), str(trace)]) == 0
        assert "equivalent" in capsys.readouterr().out

        # the final metrics snapshot carries the merged worker metrics
        assert "exec.tasks" in _counters(load_stitched(trace))

    def test_serial_run_with_no_workers_loads_unstitched(
        self, tmp_path, capsys
    ):
        trace = _certify(tmp_path, "plain", jobs=1)
        capsys.readouterr()
        assert not worker_trace_dir(trace).exists()
        records = load_stitched(trace)
        assert records[0].get("stitched") is None
        assert read_trace(trace)[0]["kind"] == "header"
