"""Shared wall-clock helpers for the benchmark suite.

One copy of the warm-up/min-of-N timing conventions that
``bench_certify.py``, ``bench_engines.py``, ``bench_exec.py``,
``bench_fft.py``, ``bench_obs.py`` and ``bench_sim.py`` all rely on.
Timing on shared CI hardware is noisy in one direction only
(preemption makes runs *slower*), so every helper reports the
**minimum** over repeats — the best observation is the closest to the
true cost of the code path.  Ratios between code paths time every side
in the same interleaved rounds (:func:`interleaved_best_of`).
"""

import random
import time


def elapsed_seconds(fn):
    """One timed call: ``(seconds, result)``."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def best_of(fn, rounds: int = 3):
    """Min-of-N wall time of ``fn``: ``(best_seconds, last_result)``."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def interleaved_best_of(fns, rounds: int = 15, min_seconds: float = 0.0):
    """Min-of-N wall times of several callables, timed in interleaved rounds.

    Every round runs each of ``fns`` (a ``{name: fn}`` mapping) once, so
    a drift in machine speed hits all of them alike.  A call runs
    measurably slower for a while after a heavy call of another callable
    (cold caches, fresh pages), so each turn makes one untimed call
    before the timed one, and the order is reshuffled every round
    (seeded): in a fixed cycle the rest of that penalty would always
    land on the same callable.  At least ``rounds`` rounds run, and more
    until ``min_seconds`` have passed, so that cheap calls collect
    enough samples for a stable minimum.  Returns
    ``{name: (best_seconds, last_result)}``.
    """
    best = dict.fromkeys(fns, float("inf"))
    results = {}
    order = list(fns)
    rng = random.Random(0)
    start = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - start < min_seconds:
        rng.shuffle(order)
        for name in order:
            fns[name]()  # settle
            seconds, results[name] = elapsed_seconds(fns[name])
            best[name] = min(best[name], seconds)
        done += 1
    return {name: (best[name], results[name]) for name in fns}


def warm_seconds(engine, placement, routing, repeats: int = 15) -> float:
    """Warm min-of-N wall time of one ``edge_loads`` call.

    The first (untimed) call builds the backend's caches and spectral
    plans, so the measured repeats see steady-state cost only.
    """
    engine.edge_loads(placement, routing)  # build caches / plans
    best, _ = best_of(
        lambda: engine.edge_loads(placement, routing), rounds=repeats
    )
    return best
