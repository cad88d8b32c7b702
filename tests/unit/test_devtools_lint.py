"""Tests for the repro.devtools.lint framework and rules RL004-RL010.

Every rule gets one failing and one passing fixture snippet; the
framework-level tests cover suppressions, reporters, the runner CLI, and
the self-check that the repo's own sources are clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import (
    SYNTAX_ERROR_CODE,
    all_rules,
    lint_file,
    lint_paths,
    parse_noqa,
)
from repro.devtools.lint.__main__ import run
from repro.devtools.lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint_snippet(tmp_path: Path, rel_path: str, source: str):
    """Write ``source`` under ``tmp_path/rel_path`` and lint just that file."""
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return lint_file(target)


def _codes(findings) -> set[str]:
    return {f.code for f in findings}


# ------------------------------------------------------------------ RL004


class TestRL004FacadeBypass:
    def test_flags_oracle_import_outside_load(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/experiments/mod.py",
            "from repro.load.edge_loads import edge_loads_reference\n\n"
            "def f(p, r):\n    return edge_loads_reference(p, r)\n",
        )
        assert "RL004" in _codes(findings)

    def test_flags_backend_class_use(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "import repro.load.engine.reference as ref\n\n"
            "def f():\n    return ref.ReferenceBackend()\n",
        )
        assert "RL004" in _codes(findings)

    def test_facade_use_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/experiments/mod.py",
            "from repro.load.engine import LoadEngine\n\n"
            "def f(p, r):\n    return LoadEngine('reference').edge_loads(p, r)\n",
        )
        assert "RL004" not in _codes(findings)

    def test_inside_load_package_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "from repro.load.edge_loads import edge_loads_reference\n\n"
            "def f(p, r):\n    return edge_loads_reference(p, r)\n",
        )
        assert "RL004" not in _codes(findings)


# ------------------------------------------------------------------ RL005


class TestRL005ConstructorValidation:
    def test_flags_unvalidated_constructor(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/torus/mod.py",
            "class Grid:\n"
            "    def __init__(self, k, d):\n"
            "        self.k = k\n"
            "        self.d = d\n",
        )
        assert "RL005" in _codes(findings)

    def test_validated_constructor_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/torus/mod.py",
            "from repro.util.validation import check_torus_params\n\n"
            "class Grid:\n"
            "    def __init__(self, k, d):\n"
            "        self.k, self.d = check_torus_params(k, d)\n",
        )
        assert "RL005" not in _codes(findings)

    def test_private_class_and_no_init_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/mixedradix/mod.py",
            "class _Helper:\n"
            "    def __init__(self, x):\n"
            "        self.x = x\n\n"
            "class Frozen:\n"
            "    pass\n",
        )
        assert "RL005" not in _codes(findings)


# ------------------------------------------------------------------ RL006


class TestRL006UnusedImport:
    def test_flags_unused_import(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "import numpy as np\n\ndef f():\n    return 1\n",
        )
        assert "RL006" in _codes(findings)

    def test_used_import_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "import numpy as np\n\ndef f():\n    return np.zeros(3)\n",
        )
        assert "RL006" not in _codes(findings)

    def test_future_and_all_reexport_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "from __future__ import annotations\n"
            "from math import tau\n\n"
            "__all__ = ['tau']\n",
        )
        assert "RL006" not in _codes(findings)

    def test_init_file_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/__init__.py",
            "from math import tau\n",
        )
        assert "RL006" not in _codes(findings)

    def test_flake8_noqa_on_line_honored(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "import repro.experiments  # noqa: F401\n",
        )
        assert "RL006" not in _codes(findings)


# ------------------------------------------------------------------ RL007


class TestRL007MutableDefault:
    def test_flags_mutable_default(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "def f(acc=[]):\n    return acc\n",
        )
        assert "RL007" in _codes(findings)

    def test_none_default_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "def f(acc=None):\n    return acc if acc is not None else []\n",
        )
        assert "RL007" not in _codes(findings)

    def test_kwonly_dict_default_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "def f(*, table={}):\n    return table\n",
        )
        assert "RL007" in _codes(findings)


# ------------------------------------------------------------------ RL008


class TestRL008FullLoadEvalInLoop:
    _LOOP_SNIPPET = (
        "from repro.load.odr_loads import odr_edge_loads\n"
        "def sweep(candidates):\n"
        "    best = None\n"
        "    for p in candidates:\n"
        "        emax = odr_edge_loads(p).max()\n"
        "        best = emax if best is None else min(best, emax)\n"
        "    return best\n"
    )

    def test_flags_call_in_loop_in_placements(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "repro/placements/mod.py", self._LOOP_SNIPPET
        )
        assert "RL008" in _codes(findings)

    def test_comprehension_counts_as_loop(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/placements/mod.py",
            "from repro.load.odr_loads import odr_edge_loads\n"
            "def sweep(candidates):\n"
            "    return [odr_edge_loads(p).max() for p in candidates]\n",
        )
        assert "RL008" in _codes(findings)

    def test_nested_loop_reports_once(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/placements/mod.py",
            "from repro.load.odr_loads import odr_edge_loads\n"
            "def sweep(grid):\n"
            "    out = []\n"
            "    for row in grid:\n"
            "        for p in row:\n"
            "            out.append(odr_edge_loads(p).max())\n"
            "    return out\n",
        )
        assert [f.code for f in findings].count("RL008") == 1

    def test_call_outside_loop_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/placements/mod.py",
            "from repro.load.odr_loads import odr_edge_loads\n"
            "def once(p):\n"
            "    return odr_edge_loads(p).max()\n",
        )
        assert "RL008" not in _codes(findings)

    def test_other_packages_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "repro/experiments/mod.py", self._LOOP_SNIPPET
        )
        assert "RL008" not in _codes(findings)

    def test_noqa_escape_hatch(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/placements/mod.py",
            "from repro.load.odr_loads import odr_edge_loads\n"
            "def oracle(candidates):\n"
            "    out = []\n"
            "    for p in candidates:\n"
            "        out.append(odr_edge_loads(p).max())  # repro: noqa(RL008)\n"
            "    return out\n",
        )
        assert "RL008" not in _codes(findings)


# ------------------------------------------------------------------ RL009


class TestRL009DirectPoolConstruction:
    def test_flags_process_pool_executor(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def fan_out(shards):\n"
            "    with ProcessPoolExecutor(4) as pool:\n"
            "        return list(pool.map(len, shards))\n",
        )
        assert "RL009" in _codes(findings)

    def test_flags_aliased_import(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "from concurrent.futures import ProcessPoolExecutor as PPE\n"
            "def fan_out():\n"
            "    return PPE(2)\n",
        )
        assert "RL009" in _codes(findings)

    def test_flags_multiprocessing_pool(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/sim/mod.py",
            "import multiprocessing as mp\n"
            "def fan_out():\n"
            "    return mp.Pool(2)\n",
        )
        assert "RL009" in _codes(findings)

    def test_flags_dotted_attribute(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/sim/mod.py",
            "import concurrent.futures\n"
            "def fan_out():\n"
            "    return concurrent.futures.ProcessPoolExecutor(2)\n",
        )
        assert "RL009" in _codes(findings)

    def test_unrelated_pool_attribute_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/sim/mod.py",
            "def reuse(connections):\n"
            "    return connections.Pool(2)\n",
        )
        assert "RL009" not in _codes(findings)

    def test_exec_package_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exec/mod.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def build():\n"
            "    return ProcessPoolExecutor(2)\n",
        )
        assert "RL009" not in _codes(findings)

    def test_tests_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "tests/test_mod.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def test_bare_pool():\n"
            "    assert ProcessPoolExecutor(2) is not None\n",
        )
        assert "RL009" not in _codes(findings)

    def test_noqa_escape_hatch(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def build():\n"
            "    return ProcessPoolExecutor(2)  # repro: noqa(RL009)\n",
        )
        assert "RL009" not in _codes(findings)


# ------------------------------------------------------------------ RL010


class TestRL010WallClockOrPrint:
    def test_flags_time_time_call(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "import time\ndef f():\n    return time.time()\n",
        )
        assert "RL010" in _codes(findings)

    def test_flags_time_time_reference(self, tmp_path):
        # the ExecutionReport.started_at bug class: a bare reference used
        # as a default_factory, never syntactically called
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "import time\n"
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class R:\n"
            "    started: float = field(default_factory=time.time)\n",
        )
        assert "RL010" in _codes(findings)

    def test_flags_from_time_import_time(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "from time import time as now\ndef f():\n    return now()\n",
        )
        assert "RL010" in _codes(findings)

    def test_flags_bare_print(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "def f(x):\n    print(x)\n    return x\n",
        )
        assert "RL010" in _codes(findings)

    def test_monotonic_clocks_pass(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "import time\n"
            "def f():\n"
            "    return time.perf_counter() - time.monotonic()\n",
        )
        assert "RL010" not in _codes(findings)

    def test_cli_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/cli.py",
            "import time\ndef f():\n    print(time.time())\n",
        )
        assert "RL010" not in _codes(findings)

    def test_devtools_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/devtools/lint/mod.py",
            "def f(x):\n    print(x)\n",
        )
        assert "RL010" not in _codes(findings)

    def test_console_module_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/obs/console.py",
            "import time\ndef wall_clock():\n    return time.time()\n",
        )
        assert "RL010" not in _codes(findings)

    def test_tests_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "tests/test_mod.py",
            "import time\ndef test_now():\n    print(time.time())\n",
        )
        assert "RL010" not in _codes(findings)

    def test_noqa_escape_hatch(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa(RL010)\n",
        )
        assert "RL010" not in _codes(findings)


# ------------------------------------------------------------------ RL017


class TestRL017DynamicTelemetryName:
    def test_flags_fstring_span_name(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exec/mod.py",
            "def f(tracer, kind):\n"
            "    with tracer.span(f'exec.{kind}'):\n"
            "        pass\n",
        )
        assert "RL017" in _codes(findings)

    def test_flags_fstring_event_name(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exec/mod.py",
            "def f(tracer, kind):\n"
            "    tracer.event(f'exec.{kind}', attempt=1)\n",
        )
        assert "RL017" in _codes(findings)

    def test_flags_dynamic_counter_name(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "def f(metrics, backend):\n"
            "    metrics.counter('engine.calls.' + backend).add(1)\n",
        )
        assert "RL017" in _codes(findings)

    def test_flags_conditional_literal_name(self, tmp_path):
        # even a closed IfExp of two literals is dynamic to a grep
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "def f(metrics, fast):\n"
            "    metrics.counter('a.b' if fast else 'a.c').add(1)\n",
        )
        assert "RL017" in _codes(findings)

    def test_flags_undotted_literal(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/sim/mod.py",
            "def f(tracer):\n"
            "    with tracer.span('simulate'):\n"
            "        pass\n",
        )
        assert "RL017" in _codes(findings)

    def test_flags_uppercase_literal(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/sim/mod.py",
            "def f(tracer):\n"
            "    tracer.metrics.gauge('Sim.Cycles').set(1)\n",
        )
        assert "RL017" in _codes(findings)

    def test_dotted_lowercase_literals_pass(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/sim/mod.py",
            "def f(tracer, n):\n"
            "    with tracer.span('sim.run', packets=n):\n"
            "        tracer.event('sim.cycle_limit')\n"
            "        tracer.metrics.counter('sim.packets_routed').add(n)\n"
            "        tracer.metrics.histogram('sim.contention').observe(n)\n"
            "    tracer.record_span('sim.replay', 0.5)\n",
        )
        assert "RL017" not in _codes(findings)

    def test_non_telemetry_receivers_pass(self, tmp_path):
        # .record/.get/np.histogram etc. are not the telemetry registry
        findings = _lint_snippet(
            tmp_path,
            "repro/load/mod.py",
            "import numpy as np\n"
            "def f(journal, task_id, loads, bins):\n"
            "    journal.record(task_id, loads)\n"
            "    return np.histogram(loads, bins=bins)\n",
        )
        assert "RL017" not in _codes(findings)

    def test_obs_package_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/obs/mod.py",
            "def f(tracer, name):\n"
            "    tracer.event(f'{name}.x')\n",
        )
        assert "RL017" not in _codes(findings)

    def test_tests_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "tests/test_mod.py",
            "def test_f(tracer, i):\n"
            "    with tracer.span(f'case_{i}'):\n"
            "        pass\n",
        )
        assert "RL017" not in _codes(findings)

    def test_noqa_escape_hatch(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exec/mod.py",
            "def f(tracer, kind):\n"
            "    tracer.event(f'exec.{kind}')  # repro: noqa(RL017)\n",
        )
        assert "RL017" not in _codes(findings)


# ------------------------------------------------------ framework behaviour


class TestSuppressions:
    def test_scoped_noqa_suppresses_one_code(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "import numpy as np  # repro: noqa(RL006)\n",
        )
        assert "RL006" not in _codes(findings)

    def test_scoped_noqa_leaves_other_codes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "def f(acc=[]):  # repro: noqa(RL006)\n    return acc\n",
        )
        assert "RL007" in _codes(findings)

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/util/mod.py",
            "def f(acc=[]):  # repro: noqa\n    return acc\n",
        )
        assert findings == []

    def test_multi_code_noqa(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/viz/mod.py",
            "from repro.load.edge_loads import edge_loads_reference"
            "  # repro: noqa(RL004, RL006)\n",
        )
        assert findings == []

    def test_parse_noqa_shapes(self):
        noqa = parse_noqa(
            "x = 1  # repro: noqa\n"
            "y = 2  # repro: noqa(RL006)\n"
            "z = 3\n"
        )
        assert noqa[1] is None
        assert noqa[2] == frozenset({"RL006"})
        assert 3 not in noqa


class TestFramework:
    def test_registry_lists_every_rule_in_order(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [f"RL00{i}" for i in range(4, 10)] + [
            "RL010", "RL014", "RL017"
        ]

    def test_syntax_error_reported_as_rl000(self, tmp_path):
        findings = _lint_snippet(tmp_path, "repro/mod.py", "def f(:\n")
        assert [f.code for f in findings] == [SYNTAX_ERROR_CODE]

    def test_select_and_ignore(self, tmp_path):
        target = tmp_path / "repro" / "util" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import numpy as np\n\ndef f(acc=[]):\n    return acc\n")
        only_unused = lint_paths([target], select=["RL006"])
        assert _codes(only_unused.findings) == {"RL006"}
        without_unused = lint_paths([target], ignore=["RL006"])
        assert _codes(without_unused.findings) == {"RL007"}

    def test_unknown_code_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lint_paths([tmp_path], select=["RL999"])

    def test_text_and_json_reporters(self, tmp_path):
        target = tmp_path / "repro" / "util" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import numpy as np\n")
        report = lint_paths([target])
        text = render_text(report)
        assert "RL006" in text and "1 finding(s)" in text
        doc = render_json(report)
        assert '"RL006"' in doc and '"total": 1' in doc

    def test_runner_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "repro" / "util" / "mod.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import numpy as np\n")
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert run([str(clean)]) == 0
        assert run([str(dirty)]) == 1
        assert run([str(clean), "--select", "RL999"]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert run(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL004" in out and "RL007" in out


class TestSelfCheck:
    """The repo must stay clean under its own linter (the CI gate)."""

    def test_src_is_clean(self):
        report = lint_paths([REPO_ROOT / "src"])
        assert report.files_scanned > 0
        assert report.findings == [], render_text(report)

    def test_tests_are_clean(self):
        report = lint_paths([REPO_ROOT / "tests"])
        assert report.files_scanned > 0
        assert report.findings == [], render_text(report)

    def test_examples_and_scripts_are_clean(self):
        report = lint_paths([REPO_ROOT / "examples", REPO_ROOT / "scripts"])
        assert report.files_scanned > 0
        assert report.findings == [], render_text(report)
