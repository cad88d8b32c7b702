"""Tests for the file-local semantic analyzer and rule RL014.

Covers the semantics package itself (resolver, scope analysis),
true-positive and false-positive fixtures for the semantic rule, the
resolver retrofits of RL004/RL009/RL010, multiline noqa spans, and the
JSON reporter round-trip.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.devtools.lint import (
    Finding,
    LintReport,
    lint_file,
    lint_paths,
)
from repro.devtools.lint.reporters import parse_json, render_json
from repro.devtools.lint.semantics import (
    FunctionScopes,
    GlobalUsage,
    ImportResolver,
    module_name_for_path,
)


def _lint_snippet(tmp_path: Path, rel_path: str, source: str):
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return lint_file(target)


def _codes(findings) -> set[str]:
    return {f.code for f in findings}


def _resolve(source: str, expr: str, module: str = "repro.demo") -> str | None:
    resolver = ImportResolver(ast.parse(source), module_name=module)
    return resolver.qualified_name(ast.parse(expr, mode="eval").body)


# ------------------------------------------------------------- resolver


class TestImportResolver:
    def test_plain_import_binds_top_name(self):
        assert _resolve("import numpy\n", "numpy.fft.rfft") == "numpy.fft.rfft"

    def test_aliased_import(self):
        assert _resolve("import numpy as np\n", "np.random.rand") == (
            "numpy.random.rand"
        )

    def test_from_import_with_rename(self):
        source = "from repro.load.engine import fft as f\n"
        assert _resolve(source, "f.FFTBackend") == (
            "repro.load.engine.fft.FFTBackend"
        )

    def test_relative_import_resolves_against_module(self):
        source = "from .engine import fft\n"
        resolver = ImportResolver(
            ast.parse(source), module_name="repro.load.helpers"
        )
        node = ast.parse("fft", mode="eval").body
        assert resolver.qualified_name(node) == "repro.load.engine.fft"

    def test_package_relative_import(self):
        source = "from .facade import LoadEngine\n"
        resolver = ImportResolver(
            ast.parse(source),
            module_name="repro.load.engine",
            is_package=True,
        )
        node = ast.parse("LoadEngine", mode="eval").body
        assert resolver.qualified_name(node) == (
            "repro.load.engine.facade.LoadEngine"
        )

    def test_module_level_alias_assignment(self):
        source = "import numpy as np\nrand = np.random.rand\n"
        assert _resolve(source, "rand") == "numpy.random.rand"

    def test_unresolvable_local(self):
        assert _resolve("import numpy\n", "local_var") is None

    def test_module_name_for_path(self):
        assert module_name_for_path(
            Path("src/repro/load/engine/fft.py")
        ) == "repro.load.engine.fft"
        assert module_name_for_path(
            Path("src/repro/load/engine/__init__.py")
        ) == "repro.load.engine"


# ------------------------------------------------------ scope analysis


class TestScopeAnalysis:
    SOURCE = (
        "_STATE = {}\n"
        "def _init(payload):\n"
        "    global _STATE\n"
        "    _STATE = dict(payload)\n"
        "def worker(x):\n"
        "    return _STATE, x\n"
        "def pure(x):\n"
        "    return x + 1\n"
        "def outer():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
    )

    def test_global_usage(self):
        usage = GlobalUsage(ast.parse(self.SOURCE))
        assert usage.mutated_globals() == frozenset({"_STATE"})
        assert usage.reads("worker") == frozenset({"_STATE"})
        assert usage.reads("pure") == frozenset()
        assert usage.writes("_init") == frozenset({"_STATE"})
        assert usage.mutators_of("_STATE") == ("_init",)

    def test_nested_function_detection(self):
        tree = ast.parse(self.SOURCE)
        scopes = FunctionScopes(tree)
        funcs = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert scopes.is_nested(funcs["inner"])
        assert not scopes.is_nested(funcs["worker"])
        assert "inner" not in scopes.module_functions


# --------------------------------------------------------------- RL014


class TestRL014WorkerPurity:
    def test_flags_lambda_worker(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from repro.exec import ResilientExecutor\n\n"
            "def f(jobs):\n"
            "    return ResilientExecutor(lambda j: j + 1, jobs)\n",
        )
        assert "RL014" in _codes(findings)

    def test_flags_nested_function_worker(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from repro.exec import ResilientExecutor\n\n"
            "def f(jobs):\n"
            "    def worker(j):\n"
            "        return j\n"
            "    return ResilientExecutor(worker, jobs)\n",
        )
        assert "RL014" in _codes(findings)

    def test_flags_mutated_global_reader_without_initializer(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from repro.exec import ResilientExecutor\n\n"
            "_STATE = {}\n\n"
            "def _install(payload):\n"
            "    global _STATE\n"
            "    _STATE = dict(payload)\n\n"
            "def _worker(j):\n"
            "    return _STATE, j\n\n"
            "def f(jobs):\n"
            "    return ResilientExecutor(_worker, jobs)\n",
        )
        assert "RL014" in _codes(findings)

    def test_sanctioned_initializer_pattern_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from repro.exec import ResilientExecutor\n\n"
            "_STATE = {}\n\n"
            "def _install(payload):\n"
            "    global _STATE\n"
            "    _STATE = dict(payload)\n\n"
            "def _worker(j):\n"
            "    return _STATE, j\n\n"
            "def f(jobs, payload):\n"
            "    return ResilientExecutor(\n"
            "        _worker, jobs, initializer=_install, initargs=(payload,)\n"
            "    )\n",
        )
        assert "RL014" not in _codes(findings)

    def test_pure_module_worker_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from repro.exec import ResilientExecutor\n\n"
            "def _worker(j):\n"
            "    return j * 2\n\n"
            "def f(jobs):\n"
            "    return ResilientExecutor(_worker, jobs)\n",
        )
        assert "RL014" not in _codes(findings)


# ------------------------------------------------------- rule retrofits


class TestResolverRetrofits:
    def test_rl004_sees_through_renamed_oracle_import(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/viz/mod.py",
            "from repro.load.edge_loads import edge_loads_reference as oracle\n\n"
            "def f(p, r):\n"
            "    return oracle(p, r)\n",
        )
        assert "RL004" in _codes(findings)

    def test_rl004_unrelated_name_resolved_elsewhere_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/viz/mod.py",
            "from repro.viz.palette import ReferenceBackend\n\n"
            "def f():\n"
            "    return ReferenceBackend()\n",
        )
        assert "RL004" not in _codes(findings)

    def test_rl009_sees_get_context_pool(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "import multiprocessing as mp\n\n"
            "def f():\n"
            "    return mp.get_context('spawn').Pool()\n",
        )
        assert "RL009" in _codes(findings)

    def test_rl009_renamed_executor_import(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from concurrent.futures import ProcessPoolExecutor as PoolCls\n\n"
            "def f():\n"
            "    return PoolCls(max_workers=2)\n",
        )
        assert "RL009" in _codes(findings)

    def test_rl010_bare_name_bound_to_wall_clock(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from time import time as now\n\n"
            "def f(record):\n"
            "    record(stamp=now)\n",
        )
        assert "RL010" in _codes(findings)

    def test_rl010_perf_counter_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "import time\n\n"
            "def f():\n"
            "    return time.perf_counter()\n",
        )
        assert "RL010" not in _codes(findings)


# --------------------------------------------- RL007 factory extension


class TestRL007FactoryExtension:
    def test_flags_attribute_form_defaultdict(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "import collections\n\n"
            "def f(acc=collections.defaultdict(list)):\n"
            "    return acc\n",
        )
        assert "RL007" in _codes(findings)

    def test_flags_imported_deque(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from collections import deque\n\n"
            "def f(q=deque()):\n"
            "    return q\n",
        )
        assert "RL007" in _codes(findings)

    def test_flags_tuple_containing_mutables(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "def f(pair=([], {})):\n"
            "    return pair\n",
        )
        assert "RL007" in _codes(findings)

    def test_plain_tuple_of_constants_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "def f(shape=(2, 3)):\n"
            "    return shape\n",
        )
        assert "RL007" not in _codes(findings)

    def test_namedtuple_style_factory_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "import collections\n\n"
            "def f(point=collections.namedtuple('P', 'x y')(0, 0)):\n"
            "    return point\n",
        )
        assert "RL007" not in _codes(findings)


# --------------------------------------------------- multiline noqa


class TestMultilineNoqa:
    def test_pragma_on_decorator_suppresses_def_finding(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "def deco(f):\n"
            "    return f\n\n\n"
            "@deco  # repro: noqa(RL007)\n"
            "def f(acc=[]):\n"
            "    return acc\n",
        )
        assert "RL007" not in _codes(findings)

    def test_pragma_inside_parenthesized_import(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "from collections import (\n"
            "    OrderedDict,  # repro: noqa(RL006)\n"
            "    deque,\n"
            ")\n\n"
            "def f():\n"
            "    return deque()\n",
        )
        assert "RL006" not in _codes(findings)

    def test_pragma_does_not_blanket_the_body(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "repro/exp/mod.py",
            "def deco(f):\n"
            "    return f\n\n\n"
            "@deco  # repro: noqa(RL007)\n"
            "def f(n):\n"
            "    acc = []\n"
            "    def g(xs=[]):\n"
            "        return xs\n"
            "    return acc, g\n",
        )
        # the nested def's own mutable default is NOT under the header span
        assert "RL007" in _codes(findings)


# ------------------------------------------------------ JSON round-trip


class TestJsonRoundTrip:
    def test_render_parse_round_trip(self, tmp_path):
        target = tmp_path / "pkg" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import sys\n\n\ndef f(x=[]):\n    return x\n")
        report = lint_paths([target])
        assert report.findings
        parsed = parse_json(render_json(report))
        assert parsed.findings == report.findings
        assert parsed.files_scanned == report.files_scanned
        assert parsed.counts == report.counts

    def test_json_snapshot_shape(self):
        report = LintReport(
            findings=[
                Finding(
                    path="src/repro/mod.py",
                    line=3,
                    col=4,
                    code="RL007",
                    message="mutable default",
                )
            ],
            files_scanned=1,
        )
        doc = json.loads(render_json(report))
        assert doc == {
            "files_scanned": 1,
            "total": 1,
            "counts": {"RL007": 1},
            "findings": [
                {
                    "path": "src/repro/mod.py",
                    "line": 3,
                    "col": 4,
                    "code": "RL007",
                    "message": "mutable default",
                }
            ],
        }
