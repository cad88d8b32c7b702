"""Tests of the end-to-end benchmark itself.

Run explicitly; tier-1 collects only ``tests/``::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracles
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_catalog_pin_rederived_by_exact_search():
    """The brute-force histogram pin, through the orbit-enumeration path."""
    from repro.placements.exact_search import exact_global_minimum
    from repro.torus.topology import Torus

    pin = oracles.CATALOG_T5
    result = exact_global_minimum(Torus(pin["k"], pin["d"]), pin["size"], mode="full")
    assert result.emax_histogram == pin["histogram"]


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_wrapped_layers_are_the_declared_layers():
    import layers

    assert sorted(layers.layer_ids()) == sorted(spec.LAYERS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_simulate_runs_end_to_end(trace):
    proc = run_bench("--workload", "simulate", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == "0":
        declared = {name: meta[0] for name, meta in spec.END_TO_END.items()}
    else:
        declared = {name: meta["unit"] for name, meta in spec.per_layer().items()}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == declared
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace == "0":
        assert all(value > 0 for value in values.values())
    else:
        assert values["sim.packets_routed"] > 0 and values["sim.build.pct"] > 0
        assert values["engine.vectorized.calls"] == 0  # simulate bypasses the engine
    for name in declared:
        assert f" {name} " in proc.stdout


def test_bare_copy_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "simulate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([100, 101, 99, 100], [105, 104, 106, 105], "lower", "ok"),
        ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "regression"),
        ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "improved"),
        ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "regression"),
        ([70, 100, 100, 140], [101, 99, 100, 100], "lower", "unresolved"),
        ([70, 100, 100, 140], [50, 60, 55, 52], "lower", "improved"),
    ],
)
def test_verdict(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.15)[0] == expected


def _write_runs(path: Path, op_ms: list[float], failed: int = 0) -> None:
    with path.open("w") as handle:
        for seed, value in enumerate(op_ms):
            metrics = {
                name: {"value": 10.0, "unit": meta[0]}
                for name, meta in spec.END_TO_END.items()
            }
            metrics["op_ms"]["value"] = value
            record = {"workload": "simulate", "seed": seed, "trace": 0, "samples": 3,
                      "correct": failed == 0, "attempted": 3, "failed": failed,
                      "metrics": metrics}
            handle.write(json.dumps(record) + "\n")


def test_compare_exit_status(tmp_path, capsys):
    runs = {
        "base": ([100, 101, 99, 100], 0),
        "same": ([100, 102, 98, 101], 0),
        "slow": ([130, 131, 129, 130], 0),
        "failing": ([100, 101, 99, 100], 1),
    }
    for name, (op_ms, failed) in runs.items():
        _write_runs(tmp_path / f"{name}.jsonl", op_ms, failed)
    base = str(tmp_path / "base.jsonl")
    assert compare.main([base, str(tmp_path / "same.jsonl")]) == 0
    assert compare.main([base, str(tmp_path / "slow.jsonl")]) == 1
    assert compare.main([base, str(tmp_path / "failing.jsonl")]) == 1
    assert "regression" in capsys.readouterr().out
