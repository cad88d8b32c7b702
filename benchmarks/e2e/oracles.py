"""Output checks for every workload, and the pinned results they use.

Every load comparison goes through :func:`repro.load.quantize.snap_loads`
first, never through raw floats: exact loads are rationals on a known
grid (integers for ODR, multiples of 1/d! for UDR), and two backends
that agree on that grid can still differ in the last float digit
(``vectorized`` UDR returns 14.000000000000009 on T_8^3).

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.load.odr_loads import odr_edge_loads
from repro.load.quantize import routing_load_quantum, snap_loads

#: the repo's headline optimum: T_6^2 with 6 processors certifies at
#: E_max 2, reached by exactly 24 (even-sublattice) placements.
CERTIFY_T6 = {"k": 6, "d": 2, "size": 6, "minimum_emax": 2.0, "num_optimal": 24}

#: the full ODR E_max histogram over all C(25, 4) = 12,650 placements of
#: 4 processors on T_5^2 (``test_e2e.py`` re-derives it by exact search).
CATALOG_T5 = {
    "k": 5, "d": 2, "size": 4,
    "histogram": {2.0: 4025, 3.0: 7725, 4.0: 900},
}

#: largest distance a load may sit from its grid point before snapping.
GRID_TOLERANCE = 1e-9


def quantum(routing, d: int) -> int:
    q = routing_load_quantum(routing, d)
    if q is None:
        raise ValueError(f"no load quantum for routing {routing.name!r}")
    return q


def total_lee_distance(placement) -> int:
    """Sum of Lee distances over ordered processor pairs.

    Every path a minimal routing takes from p to q has exactly this many
    hops, so complete-exchange loads must sum to it for ODR and UDR alike
    (UDR spreads each pair's unit weight over paths of equal length).
    """
    coords = placement.coords().astype(np.int64)
    k = placement.torus.k
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    return int(np.minimum(diff, k - diff).sum())


def check_loads(placement, routing, loads) -> list[str]:
    """Loads on their grid, non-negative, and conserving total hops."""
    d = placement.torus.d
    q = quantum(routing, d)
    loads = np.asarray(loads, dtype=np.float64)
    failures = []
    if loads.shape != (placement.torus.num_edges,):
        return [f"{placement.name}: loads shape {loads.shape}"]
    snapped = snap_loads(loads, q)
    drift = float(np.abs(loads - snapped).max(initial=0.0))
    if drift > GRID_TOLERANCE:
        failures.append(f"{placement.name}/{routing.name}: off-grid by {drift:.3g}")
    if snapped.min(initial=0.0) < 0:
        failures.append(f"{placement.name}/{routing.name}: negative load")
    hops = int(np.rint(snapped.sum() * q))
    if hops != q * total_lee_distance(placement):
        failures.append(
            f"{placement.name}/{routing.name}: loads sum {snapped.sum()} != "
            f"total Lee distance {total_lee_distance(placement)}"
        )
    return failures


def same_loads(a, b, q: int) -> bool:
    """Bit-identity of two load vectors after the grid snap."""
    return bool(np.array_equal(snap_loads(a, q), snap_loads(b, q)))


def check_certify(result) -> list[str]:
    pin = CERTIFY_T6
    failures = []
    space = math.comb(pin["k"] ** pin["d"], pin["size"])
    if result.num_placements != space:
        failures.append(f"certify: space {result.num_placements} != {space}")
    if result.minimum_emax != pin["minimum_emax"]:
        failures.append(f"certify: minimum E_max {result.minimum_emax}")
    if result.num_optimal != pin["num_optimal"]:
        failures.append(f"certify: {result.num_optimal} optima")
    witness = float(snap_loads(odr_edge_loads(result.example_optimal), 1).max())
    if witness != pin["minimum_emax"]:
        failures.append(f"certify: witness has E_max {witness}")
    return failures


def check_local_search(start, result) -> list[str]:
    failures = []
    if len(result.best) != len(start):
        failures.append("local search: size changed")
    recomputed = float(snap_loads(odr_edge_loads(result.best), 1).max())
    if recomputed != result.best_emax:
        failures.append(
            f"local search: reported E_max {result.best_emax}, "
            f"recomputed {recomputed}"
        )
    trajectory = np.asarray(result.trajectory)
    if trajectory[0] != result.initial_emax or np.any(np.diff(trajectory) >= 0):
        failures.append("local search: trajectory is not a strict descent")
    return failures


def check_catalog(result) -> list[str]:
    pin = CATALOG_T5
    failures = []
    if result.emax_histogram != pin["histogram"]:
        failures.append(f"catalog: histogram {result.emax_histogram}")
    if result.minimum_emax != min(pin["histogram"]):
        failures.append(f"catalog: minimum E_max {result.minimum_emax}")
    if result.num_optimal != pin["histogram"][min(pin["histogram"])]:
        failures.append(f"catalog: {result.num_optimal} optima")
    return failures


def check_exchange(placement, routing, rounds, num_packets, cycle, wormhole) -> list[str]:
    """Delivery, load conservation and (ODR) exact analytic link counts."""
    label = f"simulate {placement.name}/{routing.name}"
    failures = []
    if cycle.delivered != num_packets:
        failures.append(f"{label}: cycle engine delivered {cycle.delivered}/{num_packets}")
    if int(cycle.link_counts.sum()) != rounds * total_lee_distance(placement):
        failures.append(f"{label}: link counts do not conserve hops")
    if quantum(routing, placement.torus.d) == 1:  # ODR: deterministic paths
        expected = rounds * snap_loads(odr_edge_loads(placement), 1)
        if not np.array_equal(cycle.link_counts, expected):
            failures.append(f"{label}: link counts != rounds x ODR loads")
    if wormhole is not None:
        if wormhole.delivered != num_packets:
            failures.append(f"{label}: wormhole delivered {wormhole.delivered}/{num_packets}")
        if not np.array_equal(wormhole.link_packet_counts, cycle.link_counts):
            failures.append(f"{label}: wormhole and cycle link counts differ")
    return failures
