"""End-to-end observability drills.

Two contracts from the telemetry layer's charter are exercised here:

* **Tracing is an observer, not a participant** — certifying with a
  tracer installed must produce bit-identical results to certifying
  without one (the disabled path is a strict no-op, and the enabled
  path only reads).
* **Traces of deterministic runs are deterministic** — a chaos-enabled
  ``repro certify`` on :math:`T_5^2` writes a parseable JSONL trace
  whose search/prune counters and chaos retry counters repeat exactly
  across same-seed reruns, even though wall-clock timings differ.

What "deterministic" pins: the search accounting (``search.*``) and
the task ledger (``exec.tasks``/``completed``/``resumed``) repeat
exactly, as does the certified stdout.  Under hang chaos the incident
counters (retries, timeouts) repeat exactly too: the watchdog ages a
task from its hand-off to a free worker, so it charges exactly the
attempts the seed hangs.  Under crash chaos they need not: a broken
pool charges every running task, and which tasks are running when a
worker dies varies with pool scheduling.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import JsonlTraceSink, Tracer, read_trace, using_tracer
from repro.placements.exact_search import exact_global_minimum
from repro.torus.topology import Torus


def _result_key(result):
    """Everything that must be bit-identical with and without tracing."""
    return (
        result.minimum_emax,
        result.num_placements,
        result.num_optimal,
        sorted(map(tuple, result.example_optimal.coords().tolist())),
        result.mode,
        result.group_order,
        result.num_variants,
        result.counters,
    )


class TestTracerIsAPureObserver:
    def test_traced_and_untraced_certify_are_bit_identical(self, tmp_path):
        untraced = exact_global_minimum(Torus(4, 2), 4)

        tracer = Tracer(
            sink=JsonlTraceSink(tmp_path / "t44.jsonl", label="identity"),
            label="identity",
        )
        with using_tracer(tracer):
            traced = exact_global_minimum(Torus(4, 2), 4, progress=False)
        tracer.finish()

        assert _result_key(traced) == _result_key(untraced)
        # and the trace actually observed the search
        records = read_trace(tmp_path / "t44.jsonl")
        names = {r.get("name") for r in records if r.get("kind") == "span"}
        assert "search.certify" in names


class TestLadderIsTraced:
    def test_one_rung_span_per_rung(self, tmp_path):
        # T_5^2 n=5 climbs from Eq. 6's rung 1 (refuted) to the minimum 2
        path = tmp_path / "ladder.jsonl"
        tracer = Tracer(
            sink=JsonlTraceSink(path, label="ladder"), label="ladder"
        )
        with using_tracer(tracer):
            result = exact_global_minimum(Torus(5, 2), 5, progress=False)
        tracer.finish()

        spans = [r for r in read_trace(path) if r.get("kind") == "span"]
        certify = next(r for r in spans if r["name"] == "search.certify")
        rungs = [r for r in spans if r["name"] == "search.rung"]
        assert [r["parent"] for r in rungs] == [certify["id"]] * 2
        attributes = [r["attributes"] for r in rungs]
        assert [a["outcome"] for a in attributes] == ["refuted", "certified"]
        assert [(a["ub"], a["canonical_nodes"]) for a in attributes] == list(
            result.rungs
        )


#: exec counters that must repeat exactly in any drill (the task
#: ledger); under crash chaos the incident counters need not.
_LEDGER = ("exec.tasks", "exec.completed", "exec.resumed")


def _final_counters(trace_path):
    records = read_trace(trace_path)
    metrics = [r for r in records if r["kind"] == "metrics"]
    assert metrics, "trace must end with a metrics snapshot"
    return metrics[-1]["values"]["counters"]


def _deterministic_counters(counters):
    """The counters the acceptance criterion pins across same-seed runs."""
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("search.") or name in _LEDGER
    }


def _certify_argv(path, *, hang=False):
    chaos = (
        ["--chaos-seed", "13", "--chaos-crash", "0",
         "--chaos-hang", "0.3", "--task-timeout", "0.4"]
        if hang
        else ["--chaos-seed", "7"]
    )
    return [
        "certify",
        "--k", "5", "--d", "2",
        "--jobs", "2",
        *chaos,
        "--trace", str(path),
    ]


class TestChaosCertifyTraceDeterminism:
    def test_same_seed_reruns_repeat_counters(self, tmp_path, capsys):
        outputs = []
        counters = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert main(_certify_argv(path, hang=True)) == 0
            outputs.append(capsys.readouterr().out)
            # the trace parses end-to-end, header first
            records = read_trace(path)
            assert records[0]["kind"] == "header"
            assert json.dumps(records[-1])  # JSON-compatible throughout
            counters.append(_final_counters(path))

        # chaos with the same seed certifies the same answer...
        assert outputs[0] == outputs[1]
        # ...the search/prune accounting and task ledger repeat exactly...
        assert _deterministic_counters(counters[0]) == _deterministic_counters(
            counters[1]
        )
        assert counters[0]["search.subtrees_pruned_emax"] > 0
        # ...and both runs charged the same injected hangs, since a task's
        # deadline runs from its hand-off to a free worker.
        for run in counters:
            assert run["exec.retries"] > 0
            assert run["exec.timeouts"] > 0
        for name in ("exec.retries", "exec.timeouts", "exec.fallbacks"):
            assert counters[0][name] == counters[1][name], name

    def test_trace_records_executor_chaos_events(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        assert main(_certify_argv(path)) == 0
        capsys.readouterr()
        records = read_trace(path)
        events = {r["name"] for r in records if r["kind"] == "event"}
        assert "exec.retry" in events
