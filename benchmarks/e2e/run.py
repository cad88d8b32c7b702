"""End-to-end benchmark of the torus-placement reproduction.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload certify --seed 1 --seconds 10 --trace 0

measures one workload (see ``spec.py`` and ``README.md``) and prints
every metric by name with its unit, then, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  ``--out FILE`` also appends the result, tagged with
workload, seed and sample count, as one JSON line for ``compare.py``.

Each sample runs in a fresh ``worker.py`` process started from here, so
this process never imports the program.  ``setup_s`` is the median over
``SETUP_SAMPLES`` cold starts (the measuring process is one of them), each
timed from process start until its inputs exist and one warm-up call
returned.  Times are scaled to reference host speed (``speed.py``); the
human-readable lines also show them unscaled.  Exit status: 0 when every
check passed, 1 when a check failed (the result still prints), 2 when
the run could not complete (no result).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SETUP_SAMPLES = 5

#: the whole command must finish within this many seconds
BUDGET_SECONDS = 170


class RunFailed(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; its report and its set-up wall seconds."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"worker {' '.join(args)} timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    return report, report["ready"] - started


def benchmark(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """The result line's fields, plus ``samples`` and unscaled ``wall`` times."""
    deadline = time.monotonic() + BUDGET_SECONDS
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not traced:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(base + ["--setup-only"], deadline))
    extra = ["--seconds", str(seconds)] + (["--trace"] if traced else [])
    report, setup = run_worker(base + extra, deadline)
    values, wall = report["metrics"], report["wall"]
    if traced:
        units = {name: meta["unit"] for name, meta in spec.per_layer().items()}
    else:
        setups.append((report, setup))
        values["setup_s"] = statistics.median(r["setup_factor"] * s for r, s in setups)
        wall["setup_s"] = statistics.median(s for _, s in setups)
        units = {name: meta[0] for name, meta in spec.END_TO_END.items()}
    if set(values) != set(units):
        raise RunFailed(f"metrics {sorted(set(values) ^ set(units))} missing or undeclared")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
        "samples": report["samples"],
        "wall": wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark; see README.md.")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result as a JSON line")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    samples, wall = result.pop("samples"), result.pop("wall")
    for name, metric in result["metrics"].items():
        unscaled = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{args.workload:>14} {name:<40} {metric['value']:>14.6g} {metric['unit']}{unscaled}")
    print(f"{args.workload:>14} samples={samples} attempted={result['attempted']} "
          f"failed={result['failed']}")
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "samples": samples, "wall": wall, **result}
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
