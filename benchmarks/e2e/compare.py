"""Compare two sets of end-to-end runs against the benchmark's bounds.

Usage::

    python3 benchmarks/e2e/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines ``run.py --out FILE --trace 0`` appends,
any number of runs per workload.  For every workload in both files and
every end-to-end metric, one row gives each side's median and quartiles
and a verdict against the metric's bound:

``ok``          the new median is within the bound of the base median;
``regression``  it is worse by more than the bound;
``improved``    it is better by more than the bound;
``unresolved``  either side's quartile spread, as a share of its median,
                is wider than the bound, so a change of that size cannot
                be told from noise (unless every new run beats every base
                run, which reads ``improved``).

A ``fail_ratio`` row per workload compares failed over attempted checks;
any increase is a regression.  Exit status: 1 on any regression, 0
otherwise, 2 on unreadable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import spec


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced run records per workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("trace", 0) == 0:
                runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and the signed relative change (positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worse = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if spread > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def fail_ratio(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def compare(base_runs: dict, new_runs: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    lines = [
        f"{'workload':<15}{'metric':<13}{'unit':<6}"
        f"{'base median [q1, q3]':>34}{'new median [q1, q3]':>34}"
        f"{'change':>9}{'bound':>7}  verdict"
    ]
    regressed = False
    for workload in spec.WORKLOADS:
        base, new = base_runs.get(workload), new_runs.get(workload)
        if not base or not new:
            continue
        for name, (unit, better, bound, _) in spec.END_TO_END.items():
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"][name]["value"] for r in new]
            result, worse = verdict(a, b, better, bound)
            regressed |= result == "regression"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            lines.append(
                f"{workload:<15}{name:<13}{unit:<6}{cells[0]:>34}{cells[1]:>34}"
                f"{100 * worse:>+8.1f}%{100 * bound:>6.0f}%  {result}"
            )
        fa, fb = fail_ratio(base), fail_ratio(new)
        result = "regression" if fb > fa else "ok"
        regressed |= result == "regression"
        lines.append(
            f"{workload:<15}{'fail_ratio':<13}{'':<6}{fa:>34.3g}{fb:>34.3g}"
            f"{'':>9}{'+0':>7}  {result}"
        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        base, new = (load_runs(Path(arg)) for arg in argv)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    lines, regressed = compare(base, new)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
