"""Benchmark the resilient executor's overhead against a bare pool.

The resilience layer wraps every pool fan-out in the repo
(`docs/ROBUSTNESS.md`), so its bookkeeping — task states, heartbeat
waits, handing each task to a free worker (one parent round trip per
task) — must be cheap.  This suite runs an EXP-22-style
catalog workload (all ``C(16, 4)`` placements on ``T_4^2``, split into
16 explicit blocks of node-id tuples, each scored one placement at a
time by the catalog's per-placement oracle ``_evaluate_chunk``) three
ways:

* serially, as the ground truth the other two must match bit-for-bit;
* through a bare ``ProcessPoolExecutor.map`` (the pre-resilience code
  shape);
* through ``ResilientExecutor.run`` with the default fault-free policy.

The overhead pin asserts the resilient wall-clock stays within 5% of
the bare pool (plus a small absolute floor so single-core CI scheduler
jitter cannot flake the suite) — timings vary by machine, the *ratio*
must not drift.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor

import pytest
from _timing import best_of

from repro.exec import ExecPolicy, ExecTask, ResilientExecutor
from repro.placements.catalog import _evaluate_chunk
from repro.torus.topology import Torus

K, D, SIZE = 4, 2, 4
JOBS = 2
N_BLOCKS = 16

#: wall-clock ratio pin: resilient / bare must stay under this.
MAX_OVERHEAD_RATIO = 1.05
#: absolute jitter floor (seconds) so sub-second CI noise cannot flake.
NOISE_FLOOR = 0.25


def _blocks():
    """``(k, d, ids)`` payloads; ``ids`` is a list of tuples, which pickles."""
    stream = itertools.combinations(range(K**D), SIZE)
    total = 1820  # C(16, 4)
    chunk = -(-total // N_BLOCKS)
    blocks = []
    while True:
        block = list(itertools.islice(stream, chunk))
        if not block:
            return blocks
        blocks.append((K, D, block))


BLOCKS = _blocks()


def _merge(partials):
    """Histogram + minimum merged over the blocks' partial results."""
    histogram: dict[float, int] = {}
    best = None
    for p_best, _ids, _count, p_hist in partials:
        for value, count in p_hist.items():
            histogram[value] = histogram.get(value, 0) + count
        if p_best is not None and (best is None or p_best < best):
            best = p_best
    return best, histogram


def _run_bare_pool():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(_evaluate_chunk, BLOCKS))


def _run_resilient():
    tasks = [
        ExecTask(f"block-{index:05d}", block)
        for index, block in enumerate(BLOCKS)
    ]
    executor = ResilientExecutor(
        _evaluate_chunk,
        jobs=JOBS,
        policy=ExecPolicy(),
        label="bench-exec",
    )
    return executor.run(tasks).in_task_order(tasks)


def _serial_reference():
    torus = Torus(K, D)
    all_ids = itertools.combinations(range(torus.num_nodes), SIZE)
    return _merge([_evaluate_chunk((K, D, all_ids))])


@pytest.mark.benchmark(group="exec-overhead")
def test_bare_pool_catalog_blocks(benchmark):
    partials = benchmark(_run_bare_pool)
    assert _merge(partials) == _serial_reference()


@pytest.mark.benchmark(group="exec-overhead")
def test_resilient_executor_catalog_blocks(benchmark):
    partials = benchmark(_run_resilient)
    assert _merge(partials) == _serial_reference()


def test_overhead_ratio_pinned(capsys):
    """Resilient wall-clock within 5% of the bare pool (min of 3 runs)."""

    bare_time, bare = best_of(_run_bare_pool)
    resilient_time, resilient = best_of(_run_resilient)
    assert _merge(resilient) == _merge(bare) == _serial_reference()
    ratio = resilient_time / bare_time
    with capsys.disabled():
        print(
            f"\nexec overhead: bare={bare_time:.3f}s "
            f"resilient={resilient_time:.3f}s ratio={ratio:.3f}"
        )
    assert resilient_time <= bare_time * MAX_OVERHEAD_RATIO + NOISE_FLOOR, (
        f"resilient executor overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD_RATIO}x pin (bare {bare_time:.3f}s, "
        f"resilient {resilient_time:.3f}s)"
    )
