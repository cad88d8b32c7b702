"""A parallel traced certify writes one trace that tells the serial story.

The acceptance property of the trace analytics engine: a traced
parallel ``repro certify`` writes *one* trace file, and — for a
chaos-free run — its canonical form is identical whatever the worker
count.  A ``--jobs 4`` T_4² certification must tell exactly the same
structural story as the serial run, with only volatile attributes
(pids, jobs, dispatch mode) and timings differing.

Pool workers write no records; each pool task's metrics snapshot comes
back with its result.  So a pooled T_5² run's counters equal the serial
run's, chaos or not: a crashed or hung attempt delivers nothing, and
each task's work is counted once.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import (
    build_forest,
    canonical_form,
    critical_path,
    diff_traces,
    read_trace,
)


def _certify(tmp_path, tag, jobs, k=4, extra=()):
    trace = tmp_path / f"{tag}.jsonl"
    checkpoint = tmp_path / f"{tag}.ck.jsonl"
    argv = [
        "certify",
        "--k", str(k), "--d", "2",
        "--jobs", str(jobs),
        # a checkpoint forces the subtree decomposition through the
        # executor even serially, so both runs produce exec.task spans
        "--checkpoint", str(checkpoint),
        "--trace", str(trace),
        *extra,
    ]
    assert main(argv) == 0
    return trace


def _counters(records):
    snapshots = [r for r in records if r.get("kind") == "metrics"]
    return snapshots[-1]["values"]["counters"]


class TestParallelCertifyTrace:
    def test_parallel_run_writes_one_trace_file(self, tmp_path, capsys):
        trace = _certify(tmp_path, "par", jobs=4)
        capsys.readouterr()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "par.ck.jsonl", "par.jsonl"
        ]

        records = read_trace(trace)
        assert sum(1 for r in records if r.get("kind") == "header") == 1
        assert all(not root.orphan for root in build_forest(records))
        # every span is the parent's: pool workers open none
        names = {r["name"] for r in records if r.get("kind") == "span"}
        assert names == {
            "search.certify", "search.rung", "exec.run", "exec.task"
        }

        # one final snapshot carrying the whole run's ledger
        counters = _counters(records)
        assert counters["exec.tasks"] > 0
        assert counters["search.pair_updates"] > 0
        assert counters["plancache.hits"] + counters.get(
            "plancache.misses", 0
        ) > 0

    def test_trace_identical_across_worker_counts(self, tmp_path, capsys):
        serial = _certify(tmp_path, "serial", jobs=1)
        serial_out = capsys.readouterr().out
        parallel = _certify(tmp_path, "parallel", jobs=4)
        parallel_out = capsys.readouterr().out
        # same certified answer printed for both runs
        assert serial_out == parallel_out

        serial_records = read_trace(serial)
        parallel_records = read_trace(parallel)

        assert canonical_form(serial_records) == canonical_form(
            parallel_records
        )

        # the deterministic counters agree exactly
        serial_counters = _counters(serial_records)
        parallel_counters = _counters(parallel_records)
        for name in serial_counters:
            if name.startswith("search."):
                assert serial_counters[name] == parallel_counters[name], name

    def test_analytics_run_on_the_parallel_trace(self, tmp_path, capsys):
        trace = _certify(tmp_path, "analyze", jobs=4)
        capsys.readouterr()
        records = read_trace(trace)

        path = critical_path(records)
        assert path[0]["name"] == "search.certify"
        assert path[0]["fraction_of_root"] == 1.0

        # a trace diffed against itself is empty at tolerance 0
        assert diff_traces(records, records, tolerance=0.0) == []

    def test_trace_cli_subcommands_on_parallel_run(self, tmp_path, capsys):
        trace = _certify(tmp_path, "cli", jobs=4)
        capsys.readouterr()

        assert main(["trace", "critical-path", str(trace)]) == 0
        assert "search.certify" in capsys.readouterr().out

        assert main(["trace", "waterfall", str(trace)]) == 0
        assert "exec.task" in capsys.readouterr().out

        assert main(["trace", "diff", str(trace), str(trace)]) == 0
        assert "equivalent" in capsys.readouterr().out

        assert "exec.tasks" in _counters(read_trace(trace))


#: the T_5^2 pooled runs compared with the serial one.
_POOLED = {
    "chaos-free": (),
    "chaos": ("--chaos-seed", "7", "--retries", "3"),
}


@pytest.fixture(scope="module")
def serial_t5_counters(tmp_path_factory):
    """The counters of a traced serial T_5^2 ``--checkpoint`` certify."""
    tmp_path = tmp_path_factory.mktemp("serial-t5")
    return _counters(read_trace(_certify(tmp_path, "serial", jobs=1, k=5)))


class TestPooledCountersMatchSerial:
    @pytest.mark.parametrize("extra", list(_POOLED.values()), ids=list(_POOLED))
    def test_counters_match_the_serial_run(
        self, tmp_path, capsys, serial_t5_counters, extra
    ):
        trace = _certify(tmp_path, "pooled", jobs=2, k=5, extra=extra)
        capsys.readouterr()
        pooled = _counters(read_trace(trace))
        serial = serial_t5_counters

        def work(counters):
            # whether a plan-cache lookup hits depends on what the
            # process ran before, so hits and misses count as one sum
            kept = {
                name: value
                for name, value in counters.items()
                if not name.startswith(("exec.", "plancache."))
            }
            kept["plancache.lookups"] = counters.get(
                "plancache.hits", 0
            ) + counters.get("plancache.misses", 0)
            return kept

        assert work(pooled) == work(serial)
        assert work(pooled)["plancache.lookups"] > 0
        if extra:
            # the drill did crash attempts
            assert pooled["exec.retries"] > 0
        else:
            for name in ("exec.tasks", "exec.completed"):
                assert pooled[name] == serial[name], name
