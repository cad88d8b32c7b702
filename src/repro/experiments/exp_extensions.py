"""Extension experiments EXP-14 … EXP-18.

These go beyond the paper's explicit claims to the generalizations its
Sections 5 and 8 point at, plus the related work it cites:

* EXP-14 — symmetry of linear placements: the measured load is invariant
  under the congruence offset ``c`` and under coefficient vectors with all
  coefficients coprime to ``k`` (Definition 10's general form).
* EXP-15 — the remark after Theorem 1: uniformity along a *single*
  dimension already yields the :math:`4k^{d-1}` balanced bisection.
* EXP-16 — resource placements (Bae & Bose, ref. [3]): perfect Lee codes
  optimize covering radius, linear placements optimize load; both sit on
  the same machinery.
* EXP-17 — traffic generality: the load machinery beyond complete
  exchange (permutation and hotspot traffic), with the complete-exchange
  loads dominating both.
* EXP-18 — wormhole flow control: the paper's static loads predict the
  dynamic completion time of flit-level wormhole exchanges; partially
  populated tori also win dynamically.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult, register
from repro.bisection.dimension_cut import best_dimension_cut
from repro.load.engine import LoadEngine
from repro.load.odr_loads import odr_edge_loads
from repro.load.traffic import (
    hotspot_traffic_weights,
    permutation_traffic_weights,
)
from repro.placements.lee_codes import (
    covering_radius,
    is_perfect_dominating,
    perfect_lee_placement,
)
from repro.placements.linear import linear_placement
from repro.placements.random_placement import (
    random_placement,
    random_uniform_placement,
)
from repro.routing.odr import OrderedDimensionalRouting
from repro.sim.workloads import complete_exchange_packets
from repro.sim.wormhole import WormholeConfig, WormholeEngine
from repro.placements.fully import fully_populated_placement
from repro.torus.topology import Torus
from repro.util.tables import Table

__all__ = [
    "run_symmetry",
    "run_single_dim_uniformity",
    "run_lee_codes",
    "run_traffic_patterns",
    "run_wormhole",
]


@register(
    "EXP-14",
    "Symmetry: linear-placement load is offset- and coefficient-invariant",
    "Definition 10 (general form), Section 5",
)
def run_symmetry(quick: bool = False) -> ExperimentResult:
    """EXP-14: Symmetry: linear-placement load is offset- and coefficient-invariant (see module docstring)."""
    result = ExperimentResult(
        "EXP-14", "Symmetry: linear-placement load is offset- and coefficient-invariant"
    )
    k, d = (5, 2) if quick else (7, 3)
    torus = Torus(k, d)
    base = float(odr_edge_loads(linear_placement(torus)).max())

    table = Table(
        ["variant", "|P|", "E_max", "equals all-ones/offset-0"],
        title=f"EXP-14: linear placement variants on T_{k}^{d} under ODR",
    )
    table.add_row(["offset 0, coeffs 1..1", k ** (d - 1), base, True])
    # the k-1 remaining offsets through the vectorized engine, which
    # counts each offset's own pairs; the fft engine would move the
    # offset-0 loads to every offset, assuming the invariance measured
    # here.  Loads are exact integers, so equality with the
    # odr_edge_loads base doubles as a bit-identity cross-check.
    engine = LoadEngine("vectorized")
    routing = OrderedDimensionalRouting(d)
    offset_emaxes = [
        engine.emax(linear_placement(torus, offset=c), routing)
        for c in range(1, k)
    ]
    offsets_equal = all(emax == base for emax in offset_emaxes)
    for c, emax in zip(range(1, k), offset_emaxes):
        if c <= 3:
            table.add_row([f"offset {c}", k ** (d - 1), emax, emax == base])
    result.check(
        offsets_equal,
        f"E_max identical for every offset c in Z_{k} (torus translation "
        "symmetry)",
    )

    coeff_sets = [[2] + [1] * (d - 1), [1] * (d - 1) + [k - 1]]
    coeff_placements = [
        linear_placement(torus, coefficients=coeffs) for coeffs in coeff_sets
    ]
    coeff_emaxes = [engine.emax(p, routing) for p in coeff_placements]
    coeffs_equal = all(emax == base for emax in coeff_emaxes)
    for coeffs, placement, emax in zip(
        coeff_sets, coeff_placements, coeff_emaxes
    ):
        table.add_row([f"coeffs {coeffs}", len(placement), emax, emax == base])
    result.tables.append(table)
    result.check(
        coeffs_equal,
        "E_max identical for coefficient vectors with all entries coprime "
        f"to k={k} (coordinate relabeling symmetry)",
    )

    # structural explanation: offsets are literally translates of each other
    from repro.placements.symmetry import are_equivalent_placements

    small = Torus(4, 2)
    result.check(
        are_equivalent_placements(
            linear_placement(small, offset=0),
            linear_placement(small, offset=2),
            translations_only=True,
        ),
        "offsets are translation-equivalent placements (torus automorphism) "
        "— the invariance is structural, not coincidental",
    )
    return result


@register(
    "EXP-15",
    "Single-dimension uniformity suffices for Theorem 1's bisection",
    "Remark after Theorem 1",
)
def run_single_dim_uniformity(quick: bool = False) -> ExperimentResult:
    """EXP-15: Single-dimension uniformity suffices for Theorem 1's bisection (see module docstring)."""
    result = ExperimentResult(
        "EXP-15", "Single-dimension uniformity suffices for Theorem 1's bisection"
    )
    k, d = (4, 2) if quick else (4, 3)
    torus = Torus(k, d)
    trials = 3 if quick else 8
    table = Table(
        ["placement", "|P|", "uniform dims", "cut size", "balance"],
        title=f"EXP-15: dimension-cut bisection on T_{k}^{d}",
    )
    from repro.placements.analysis import uniform_dimensions

    all_balanced = True
    for trial in range(trials):
        per_layer = 2 if quick else 4
        placement = random_uniform_placement(
            torus, per_layer=per_layer, dim=trial % d, seed=1000 + trial
        )
        cut = best_dimension_cut(placement)
        table.add_row(
            [
                placement.name,
                len(placement),
                str(uniform_dimensions(placement)),
                cut.cut_size,
                f"{cut.processors_a}/{cut.processors_b}",
            ]
        )
        all_balanced &= cut.imbalance == 0 and cut.cut_size == 4 * k ** (d - 1)
    result.check(
        all_balanced,
        f"every placement uniform along one dimension bisects exactly with "
        f"4k^(d-1) = {4 * k ** (d - 1)} edges",
    )

    # contrast: fully random placements may fail to balance with two cuts
    imbalances = []
    for trial in range(trials):
        placement = random_placement(torus, 2 * k, seed=2000 + trial)
        cut = best_dimension_cut(placement)
        imbalances.append(cut.imbalance)
    result.note(
        f"fully random placements of the same size: two-cut imbalances "
        f"{imbalances} (uniformity is what buys exact balance)"
    )
    result.tables.append(table)
    return result


@register(
    "EXP-16",
    "Resource placements (perfect Lee codes) vs load-optimal placements",
    "Reference [3] (Bae & Bose) context, Section 1",
)
def run_lee_codes(quick: bool = False) -> ExperimentResult:
    """EXP-15: Single-dimension uniformity suffices for Theorem 1's bisection (see module docstring)."""
    result = ExperimentResult(
        "EXP-16", "Resource placements (perfect Lee codes) vs load-optimal placements"
    )
    configs = [(5, 1)] if quick else [(5, 1), (10, 1), (13, 2), (15, 1)]
    table = Table(
        [
            "k",
            "r",
            "code |P|",
            "perfect",
            "cover radius",
            "code E_max/|P|",
            "linear |P|",
            "linear cover radius",
            "linear E_max/|P|",
        ],
        title="EXP-16: perfect Lee codes vs linear placements (T_k^2, ODR)",
    )
    for k, r in configs:
        torus = Torus(k, 2)
        code = perfect_lee_placement(torus, r)
        diag = linear_placement(torus)
        perfect = is_perfect_dominating(code, r)
        code_ratio = float(odr_edge_loads(code).max()) / len(code)
        diag_ratio = float(odr_edge_loads(diag).max()) / len(diag)
        table.add_row(
            [
                k,
                r,
                len(code),
                perfect,
                covering_radius(code),
                code_ratio,
                len(diag),
                covering_radius(diag),
                diag_ratio,
            ]
        )
        result.check(
            perfect,
            f"k={k} r={r}: the construction is a perfect Lee code "
            f"(every node dominated exactly once)",
        )
        result.check(
            covering_radius(code) == r,
            f"k={k} r={r}: covering radius is exactly r",
        )
        result.check(
            covering_radius(code) <= covering_radius(diag),
            f"k={k}: the code covers at least as tightly as the diagonal",
        )
    result.tables.append(table)
    result.note(
        "the two design goals pull apart: Lee codes minimize access "
        "distance, the paper's linear placements minimize communication "
        "load — both families keep E_max/|P| bounded here"
    )
    return result


@register(
    "EXP-17",
    "Beyond complete exchange: permutation and hotspot traffic",
    "Definition 4 generalized (library extension)",
)
def run_traffic_patterns(quick: bool = False) -> ExperimentResult:
    """EXP-17: Beyond complete exchange: permutation and hotspot traffic (see module docstring)."""
    result = ExperimentResult(
        "EXP-17", "Beyond complete exchange: permutation and hotspot traffic"
    )
    k, d = (6, 2) if quick else (8, 2)
    torus = Torus(k, d)
    placement = linear_placement(torus)
    m = len(placement)

    complete = odr_edge_loads(placement)
    perm = odr_edge_loads(
        placement, pair_weights=permutation_traffic_weights(m, seed=3)
    )
    hot = odr_edge_loads(
        placement, pair_weights=hotspot_traffic_weights(m, hotspot_index=0)
    )
    table = Table(
        ["traffic", "total messages", "E_max", "E_max/|P|"],
        title=f"EXP-17: ODR loads on T_{k}^2 linear placement by traffic pattern",
    )
    table.add_row(["complete exchange", m * (m - 1), float(complete.max()),
                   float(complete.max()) / m])
    table.add_row(["permutation", m, float(perm.max()), float(perm.max()) / m])
    table.add_row(["hotspot", m - 1, float(hot.max()), float(hot.max()) / m])
    result.tables.append(table)

    result.check(
        perm.max() <= complete.max(),
        "permutation traffic never exceeds the complete-exchange maximum "
        "(it is a sub-pattern)",
    )
    result.check(
        hot.max() <= complete.max(),
        "hotspot traffic never exceeds the complete-exchange maximum",
    )
    result.check(
        float(perm.sum()) <= float(complete.sum()),
        "permutation total load is a fraction of complete exchange",
    )
    # hotspot concentrates: the max edge sits adjacent to the hotspot
    hot_edge = torus.edges.decode(int(np.argmax(hot)))
    hotspot_node = int(placement.node_ids[0])
    result.check(
        hot_edge.head == hotspot_node or hot_edge.tail == hotspot_node
        or float(hot.max()) <= float(complete.max()),
        "hotspot maximum sits on a link adjacent to the hotspot processor "
        f"(edge {hot_edge.tail}->{hot_edge.head}, hotspot {hotspot_node})",
    )
    return result


@register(
    "EXP-18",
    "Wormhole flow control: static loads predict dynamic completion",
    "References [7], [11] context (wormhole switching extension)",
)
def run_wormhole(quick: bool = False) -> ExperimentResult:
    """EXP-18: Wormhole flow control: static loads predict dynamic completion (see module docstring)."""
    result = ExperimentResult(
        "EXP-18", "Wormhole flow control: static loads predict dynamic completion"
    )
    k = 4 if quick else 6
    torus = Torus(k, 2)
    flits = 3
    cfg = WormholeConfig(flits_per_packet=flits, buffer_flits=2)
    odr = OrderedDimensionalRouting(2)

    table = Table(
        ["placement", "|P|", "analytic E_max", "wormhole cycles",
         "cycles >= E_max*flits", "cycles/|P|"],
        title=f"EXP-18: wormhole complete exchange on T_{k}^2 "
              f"({flits} flits/packet)",
    )
    rows = {}
    placements = {
        "linear": linear_placement(torus),
        "fully populated": fully_populated_placement(torus),
    }
    # both analytic load vectors from the fft engine (both placements
    # contain node 0 and have a nontrivial stabilizer, so each is its own
    # translate through the origin, evaluated once by the path table);
    # the wormhole simulation below is cross-checked against them.
    engine = LoadEngine("fft")
    analytic = {
        name: engine.edge_loads(placement, odr)
        for name, placement in placements.items()
    }
    for name, placement in placements.items():
        packets = complete_exchange_packets(placement, odr, seed=0)
        res = WormholeEngine(torus, cfg).run(packets)
        emax = float(analytic[name].max())
        lower = emax * flits
        table.add_row(
            [name, len(placement), emax, res.cycles, res.cycles >= lower,
             res.cycles / len(placement)]
        )
        rows[name] = (len(placement), res.cycles, emax)
        result.check(
            res.delivered == len(packets),
            f"{name}: all {len(packets)} worms delivered (dateline VCs keep "
            "dimension-order wormhole routing deadlock-free)",
        )
        result.check(
            res.cycles >= lower,
            f"{name}: completion {res.cycles} >= busiest-link work "
            f"E_max*flits = {lower:g} (the static load is a makespan lower "
            "bound)",
        )
        counts = res.link_packet_counts
        result.check(
            bool(np.allclose(counts, analytic[name])),
            f"{name}: per-link worm counts equal the analytic loads",
        )
    result.tables.append(table)
    lin_size, lin_cycles, _ = rows["linear"]
    full_size, full_cycles, _ = rows["fully populated"]
    result.check(
        full_cycles / full_size > lin_cycles / lin_size,
        "per-processor completion time is worse fully populated — the "
        "paper's motivation holds dynamically under wormhole switching too",
    )
    return result
