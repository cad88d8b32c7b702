"""One benchmark process: set up a workload, drive it, report one JSON line.

``run.py`` starts this script in a fresh interpreter for every sample,
so each run pays its own imports and caches.  The loop is closed: one
client issues one operation at a time and the next only after the
previous returned, until ``--seconds`` have passed (the operation in
flight then completes).  Outputs are checked after each operation,
outside the timed region.  Everything runs serially in this one process,
so work counts repeat exactly and nothing competes for the cores.

``--setup-only`` stops after set-up (imports, inputs, one warm-up call);
``--trace`` alternates untraced and traced operations (see ``layers.py``).
The report's ``ready`` field is the ``time.monotonic()`` instant set-up
ended, which ``run.py`` subtracts from the instant it started the process,
and ``setup_factor`` scales that set-up time to reference host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spec
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, and only from there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


class Tally:
    """Outputs checked and failures seen; failures are logged, not fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, checked: int, failures: list[str]) -> None:
        self.attempted += checked
        self.failed += len(failures)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)


def run_op(workload, index: int, tally: Tally, around=contextlib.nullcontext):
    """One closed-loop operation: ``(inputs, output, seconds)`` or ``None``."""
    inputs = workload.inputs(index)
    try:
        with around():
            start = time.perf_counter()
            output = workload.op(inputs)
            seconds = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        tally.record(1, [f"operation {index} raised"])
        return None
    try:
        tally.record(*workload.check(inputs, output))
    except Exception:
        traceback.print_exc()
        tally.record(1, [f"check of operation {index} raised"])
    return inputs, output, seconds


def measure(workload, seconds: float, tally: Tally, probe) -> tuple[dict, int, dict]:
    """End-to-end metrics of one untraced closed-loop run.

    Each operation's wall time is scaled to reference host speed by the
    samples ``probe`` took while it ran (see ``speed.py``).
    """
    scaled: list[float] = []
    rates: list[float] = []
    wall: list[float] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        done = run_op(workload, index, tally, probe.window)
        index += 1
        if done is not None:
            wall.append(done[2])
            scaled.append(done[2] * probe.factor)
            rates.append(workload.items(done[1]) / scaled[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.record(*workload.verify())
    if not scaled:
        raise SystemExit("error: no operation completed")
    metrics = {
        "op_ms": statistics.median(scaled) * 1e3,
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, len(scaled), {"op_ms": statistics.median(wall) * 1e3}


@contextlib.contextmanager
def traced_window(probe, instrumentation, index: int):
    with probe.window(), instrumentation.operation(index):
        yield


def trace(workload, name: str, seed: int, seconds: float, tally: Tally, probe) -> tuple[dict, int]:
    """Per-layer metrics: untraced operation 2i, then traced operation 2i+1.

    Shares are summed over every traced operation; counts come from the
    first traced operation, whose inputs depend only on the seed; the
    workload's ``after_trace`` metrics are measured once, untraced, after
    the loop.  Both operations of a pair are scaled to reference host
    speed, so that ``trace_overhead`` compares like with like.
    """
    import layers

    instrumentation = layers.Instrumentation(label=f"bench-{name}")
    untraced = traced = 0.0
    shares: Counter[str] = Counter()
    first = None
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        plain = run_op(workload, 2 * pair, tally, probe.window)
        plain_factor = probe.factor
        index = 2 * pair + 1
        done = run_op(
            workload, index, tally, lambda: traced_window(probe, instrumentation, index)
        )
        pair += 1
        if plain is None or done is None:
            continue
        untraced += plain[2] * plain_factor
        traced += done[2] * probe.factor
        shares.update(instrumentation.last["layer_seconds"])
        shares.update(workload.layer_seconds(done[1]))
        if first is None:
            first = (done, instrumentation.last)
    tally.record(*workload.verify())
    if first is None:
        raise SystemExit("error: no traced operation completed")
    instrumentation.write(ROOT / ".bench_traces" / f"{name}.jsonl")

    declared = spec.per_layer()
    metrics = dict.fromkeys(declared, 0.0)
    total = shares.pop(layers.ROOT_SPAN)
    for layer, layer_seconds in shares.items():
        metrics[f"{layer}.pct"] = 100.0 * layer_seconds / total
    (inputs, output, _), tallies = first
    for layer, calls in tallies["calls"].items():
        key = "routing.paths_calls" if layer == "routing.paths" else f"{layer}.calls"
        if key in declared:  # layers called once per operation report no count
            metrics[key] = calls
    for counter in spec.PROGRAM_COUNTS:
        metrics[counter] = tallies["counters"].get(counter, 0.0)
    metrics.update(workload.counts(inputs, output))
    metrics.update(workload.after_trace(seed))
    metrics["trace_overhead"] = traced / untraced
    unknown = set(metrics) - set(declared)
    if unknown:
        raise SystemExit(f"error: undeclared per-layer metrics {sorted(unknown)}")
    return metrics, pair


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    probe = speed.SpeedProbe()
    with probe.window():
        import_program()
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.warmup()
    report = {"ready": time.monotonic(), "setup_factor": probe.factor}
    if args.setup_only:
        print(json.dumps(report))
        return 0
    tally = Tally()
    if args.trace:
        metrics, samples = trace(workload, args.workload, args.seed, args.seconds, tally, probe)
        wall = {}
    else:
        metrics, samples, wall = measure(workload, args.seconds, tally, probe)
    report.update(attempted=tally.attempted, failed=tally.failed, samples=samples,
                  metrics=metrics, wall=wall)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
