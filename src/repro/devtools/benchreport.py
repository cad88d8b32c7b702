"""The bench observatory: BENCH_*.json baselines → one trajectory file.

The committed ``benchmarks/BENCH_*.json`` baselines are point-pins: each
records what one benchmark measured (or must measure exactly) the last
time it was regenerated, but nothing relates successive regenerations.
This module aggregates every committed baseline into one schema-versioned
``benchmarks/BENCH_trajectory.json``:

* each baseline contributes named **metrics** (``batch.speedup``,
  ``exp22.symmetry_bnb_T6.pair_updates``, ``certify.T6.seconds``, ...),
  classified by *direction* — ``higher``/``lower`` for thresholded measurements,
  ``exact`` for deterministic pins that must never drift;
* each metric carries a **series** of ``{value, recorded_unix}`` points,
  appended on regeneration only when the value actually changed, so the
  committed file stays byte-stable across no-op report runs;
* thresholds come from the baselines' own ``min_*`` pins where they
  exist (``batch.speedup`` fails below ``min_speedup``), ``exact``
  metrics pin to their first recorded value, and everything else is
  informational (machine-dependent throughputs are tracked, never
  gated).

``repro bench report`` regenerates the trajectory; ``repro bench report
--check`` recomputes current values and exits non-zero if any gated
metric regressed beyond its pinned tolerance — the CI regression gate.
Unknown future ``BENCH_*.json`` files degrade gracefully: every numeric
leaf is tracked as an informational metric, so the trajectory always
covers the whole committed baseline set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.console import info, wall_clock

__all__ = [
    "TRAJECTORY_SCHEMA_VERSION",
    "extract_metrics",
    "build_trajectory",
    "check_trajectory",
    "run_report",
]

TRAJECTORY_SCHEMA_VERSION = 1

#: metrics are (name, value, direction, threshold) tuples.
Metric = tuple[str, Any, str, float | None]


# ------------------------------------------------------------- extraction


def _numeric_leaves(data: Any, prefix: str) -> Iterator[tuple[str, float]]:
    if isinstance(data, dict):
        for key in sorted(data):
            yield from _numeric_leaves(data[key], f"{prefix}.{key}")
    elif isinstance(data, bool):
        return
    elif isinstance(data, (int, float)):
        yield prefix, float(data)


def _extract_batch(data: dict[str, Any]) -> Iterator[Metric]:
    measured = data.get("measured", {})
    yield "batch.speedup", measured.get("speedup"), "higher", data.get(
        "min_speedup"
    )
    yield "batch.hit_rate", measured.get("hit_rate"), "higher", data.get(
        "min_hit_rate"
    )
    yield "batch.sequential_ms", measured.get("sequential_ms"), "lower", None
    yield "batch.batched_ms", measured.get("batched_ms"), "lower", None
    yield "batch.emax_values", data.get("emax_values"), "exact", None


def _extract_certify(data: dict[str, Any]) -> Iterator[Metric]:
    limits = data.get("max_seconds", {})
    for case, entry in sorted(data.get("cases", {}).items()):
        yield (
            f"certify.{case}.seconds",
            entry.get("seconds"),
            "lower",
            limits.get(case),
        )
        for field, value in sorted(entry.get("counts", {}).items()):
            yield f"certify.{case}.{field}", value, "exact", None


def _extract_engines(data: dict[str, Any]) -> Iterator[Metric]:
    for config in data.get("configs", []):
        torus = str(config.get("torus", "?"))
        yield f"engines.{torus}.pairs", config.get("pairs"), "exact", None
        yield f"engines.{torus}.emax", config.get("emax"), "exact", None
        for backend, rate in sorted(config.get("pairs_per_sec", {}).items()):
            yield (
                f"engines.{torus}.pairs_per_sec.{backend}",
                rate,
                "higher",
                None,
            )


def _extract_exp22(data: dict[str, Any]) -> Iterator[Metric]:
    for case, counts in sorted(data.get("counts", {}).items()):
        for field, value in sorted(counts.items()):
            yield f"exp22.{case}.{field}", value, "exact", None


def _extract_lint(data: dict[str, Any]) -> Iterator[Metric]:
    yield "lint.rules", len(data.get("rules", [])), "exact", None
    corpus = data.get("corpus", {})
    yield "lint.corpus.files", corpus.get("files"), "exact", None
    for code, count in sorted(corpus.get("per_file", {}).items()):
        yield f"lint.corpus.per_file.{code}", count, "exact", None
    self_lint = data.get("self_lint", {})
    yield "lint.self_findings", self_lint.get("findings"), "exact", None
    for scope, rate in sorted(data.get("files_per_sec", {}).items()):
        yield f"lint.files_per_sec.{scope}", rate, "higher", None


_EXTRACTORS: dict[str, Callable[[dict[str, Any]], Iterator[Metric]]] = {
    "BENCH_batch.json": _extract_batch,
    "BENCH_certify.json": _extract_certify,
    "BENCH_engines.json": _extract_engines,
    "BENCH_exp22.json": _extract_exp22,
    "BENCH_lint.json": _extract_lint,
}


def extract_metrics(name: str, data: dict[str, Any]) -> list[Metric]:
    """The named metrics one baseline file contributes.

    Known baselines get curated extraction (thresholds, exactness);
    unknown ones fall back to every numeric leaf as an informational
    series, keyed by the filename stem.
    """
    extractor = _EXTRACTORS.get(name)
    if extractor is not None:
        metrics = [m for m in extractor(data) if m[1] is not None]
    else:
        stem = name.removeprefix("BENCH_").removesuffix(".json")
        metrics = [
            (metric, value, "higher", None)
            for metric, value in _numeric_leaves(data, stem)
        ]
    return metrics


# ------------------------------------------------------------- trajectory


def build_trajectory(
    benchmarks_dir: str | Path,
    previous: dict[str, Any] | None = None,
    now: float | None = None,
) -> dict[str, Any]:
    """Aggregate every ``BENCH_*.json`` into the trajectory structure.

    ``previous`` (a loaded trajectory of the same schema version) seeds
    the per-metric series; a new point is appended only when a metric's
    current value differs from its latest recorded one, so regenerating
    against unchanged baselines is a no-op on the series.  Metrics whose
    source baseline disappeared are retired (dropped with a note in
    ``retired``); ``exact`` metrics keep their first value as the pin.
    """
    directory = Path(benchmarks_dir)
    sources = sorted(
        p.name for p in directory.glob("BENCH_*.json")
        if p.name != "BENCH_trajectory.json"
    )
    stamp = wall_clock() if now is None else now
    old_metrics: dict[str, Any] = {}
    if previous and previous.get("schema_version") == TRAJECTORY_SCHEMA_VERSION:
        old_metrics = dict(previous.get("metrics", {}))

    metrics: dict[str, Any] = {}
    for source in sources:
        data = json.loads((directory / source).read_text(encoding="utf-8"))
        for name, value, direction, threshold in extract_metrics(source, data):
            entry = old_metrics.get(name)
            series = list(entry.get("series", [])) if entry else []
            if not series or series[-1]["value"] != value:
                series.append({"value": value, "recorded_unix": stamp})
            metrics[name] = {
                "source": source,
                "direction": direction,
                "threshold": threshold,
                "series": series,
            }
    retired = sorted(set(old_metrics) - set(metrics))
    trajectory: dict[str, Any] = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "description": (
            "Per-metric history of the committed BENCH_*.json baselines, "
            "regenerated by `repro bench report`. direction=exact metrics "
            "pin to their first recorded value; thresholded metrics fail "
            "`repro bench report --check` when the latest value violates "
            "the pinned bound; threshold=null series are informational."
        ),
        "sources": sources,
        "metrics": metrics,
    }
    if retired:
        trajectory["retired"] = retired
    return trajectory


def check_trajectory(
    trajectory: dict[str, Any], benchmarks_dir: str | Path
) -> list[str]:
    """Regression check: current baseline values vs the trajectory's pins.

    Returns human-readable violation strings (empty = pass):

    * an ``exact`` metric whose current value differs from its first
      recorded (pinned) value;
    * a thresholded ``higher``/``lower`` metric whose current value is
      on the wrong side of the threshold;
    * a baseline file present in the trajectory's sources but missing
      on disk (a silently dropped pin is itself a regression).
    """
    directory = Path(benchmarks_dir)
    if trajectory.get("schema_version") != TRAJECTORY_SCHEMA_VERSION:
        return [
            f"trajectory schema_version "
            f"{trajectory.get('schema_version')!r} != supported "
            f"{TRAJECTORY_SCHEMA_VERSION}"
        ]
    violations: list[str] = []
    current: dict[str, Metric] = {}
    for source in trajectory.get("sources", []):
        path = directory / source
        if not path.exists():
            violations.append(
                f"{source}: baseline file missing (was in the trajectory)"
            )
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        for metric in extract_metrics(source, data):
            current[metric[0]] = metric

    for name, entry in sorted(trajectory.get("metrics", {}).items()):
        series = entry.get("series", [])
        if not series:
            continue
        present = current.get(name)
        if present is None:
            violations.append(
                f"{name}: metric vanished from {entry.get('source')}"
            )
            continue
        _, value, _, _ = present
        direction = entry.get("direction")
        threshold = entry.get("threshold")
        if direction == "exact":
            pinned = series[0]["value"]
            if value != pinned:
                violations.append(
                    f"{name}: exact pin drifted — {pinned!r} -> {value!r}"
                )
        elif threshold is not None:
            if direction == "higher" and value < threshold:
                violations.append(
                    f"{name}: {value!r} fell below the pinned minimum "
                    f"{threshold!r}"
                )
            elif direction == "lower" and value > threshold:
                violations.append(
                    f"{name}: {value!r} exceeded the pinned maximum "
                    f"{threshold!r}"
                )
    return violations


def run_report(
    benchmarks_dir: str | Path = "benchmarks",
    output: str | Path | None = None,
    check: bool = False,
) -> int:
    """The ``repro bench report`` entry point; returns the exit code."""
    directory = Path(benchmarks_dir)
    out_path = (
        Path(output) if output is not None
        else directory / "BENCH_trajectory.json"
    )
    previous: dict[str, Any] | None = None
    if out_path.exists():
        previous = json.loads(out_path.read_text(encoding="utf-8"))

    if check:
        if previous is None:
            print(f"no trajectory at {out_path} — run `repro bench report`")
            return 1
        violations = check_trajectory(previous, directory)
        if violations:
            print(f"{len(violations)} benchmark regression(s):")
            for violation in violations:
                print(f"  {violation}")
            return 1
        gated = sum(
            1
            for entry in previous.get("metrics", {}).values()
            if entry.get("direction") == "exact"
            or entry.get("threshold") is not None
        )
        print(
            f"bench trajectory OK: {len(previous.get('metrics', {}))} "
            f"metrics ({gated} gated) across "
            f"{len(previous.get('sources', []))} baselines"
        )
        return 0

    trajectory = build_trajectory(directory, previous=previous)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    info(f"bench trajectory written to {out_path}")
    print(
        f"{len(trajectory['metrics'])} metrics across "
        f"{len(trajectory['sources'])} baselines -> {out_path}"
    )
    violations = check_trajectory(trajectory, directory)
    if violations:
        print(f"{len(violations)} benchmark regression(s):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0
